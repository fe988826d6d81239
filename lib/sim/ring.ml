(* The capacity is a power of two. [vacant] is what free slots hold in a
   clearing ring; otherwise growth fills with the pushed value. *)
type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int; vacant : 'a option }

let create () = { buf = [||]; head = 0; len = 0; vacant = None }
let clearing v = { buf = [||]; head = 0; len = 0; vacant = Some v }
let length r = r.len

let push r v =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (if cap = 0 then 8 else 2 * cap) (Option.value r.vacant ~default:v) in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- v;
  r.len <- r.len + 1

let pop r =
  let v = r.buf.(r.head) in
  (match r.vacant with Some f -> r.buf.(r.head) <- f | None -> ());
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  v

type floats = { mutable fs : float array; mutable fhead : int; mutable flen : int }

let floats () = { fs = [||]; fhead = 0; flen = 0 }

let push_float r c =
  let cap = Array.length r.fs in
  if r.flen = cap then begin
    let fs = Array.make (max 8 (2 * cap)) 0.0 in
    for i = 0 to r.flen - 1 do fs.(i) <- r.fs.((r.fhead + i) land (cap - 1)) done;
    r.fs <- fs;
    r.fhead <- 0
  end;
  r.fs.((r.fhead + r.flen) land (Array.length r.fs - 1)) <- c.(0);
  r.flen <- r.flen + 1

let pop_float r c =
  c.(0) <- r.fs.(r.fhead);
  r.fhead <- (r.fhead + 1) land (Array.length r.fs - 1);
  r.flen <- r.flen - 1
