(* Structure-of-arrays binary min-heap.

   Priorities live in a flat [float array] (unboxed storage) with a parallel
   [int array] of tie-break sequences and an ['a array] of payloads, so a
   push/pop cycle allocates nothing: no per-entry record, no result tuple,
   and growth doubles the three arrays in place.

   Both sift directions move a "hole" instead of swapping pairwise: the
   entry in motion stays in registers, each level does one write per array
   (the displaced element into the hole), and the entry is written once at
   its final position. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; len = 0 }
let is_empty h = h.len = 0
let size h = h.len

let grow h v =
  let cap = Array.length h.times in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nt = Array.make ncap 0.0 in
    let ns = Array.make ncap 0 in
    let nv = Array.make ncap v in
    Array.blit h.times 0 nt 0 h.len;
    Array.blit h.seqs 0 ns 0 h.len;
    Array.blit h.vals 0 nv 0 h.len;
    h.times <- nt;
    h.seqs <- ns;
    h.vals <- nv
  end

let push h c ~seq value =
  grow h value;
  let time = c.(0) in
  let times = h.times and seqs = h.seqs and vals = h.vals in
  let i = ref h.len in
  h.len <- h.len + 1;
  (* Sift the hole up: parents larger than the new entry move down a level. *)
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      vals.(!i) <- vals.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- value

(* The scheduler's accessors return [bool] and write times into the caller's
   flat float array, so no float is boxed crossing the call. *)
let precedes a b =
  a.len > 0
  && (b.len = 0
     || a.times.(0) < b.times.(0)
     || (a.times.(0) = b.times.(0) && a.seqs.(0) < b.seqs.(0)))

let due h c ~at_now horizon =
  h.len > 0
  && if at_now then h.times.(0) <= c.(0) else h.times.(0) <= horizon && (c.(0) <- h.times.(0); true)

let pop_top h =
  if h.len = 0 then invalid_arg "Heap.pop_top: empty heap";
  let min_v = h.vals.(0) in
  h.len <- h.len - 1;
  let n = h.len in
  if n > 0 then begin
    let times = h.times and seqs = h.seqs and vals = h.vals in
    (* Sift the root hole down: the smaller child moves up one level until
       the old last leaf fits. *)
    let time = times.(n) and seq = seqs.(n) and v = vals.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else moving := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    vals.(!i) <- v;
    (* Drop the freed slot's payload reference so popped closures are not
       retained by the heap (duplicate a live value instead). *)
    vals.(n) <- vals.(0)
  end;
  min_v
