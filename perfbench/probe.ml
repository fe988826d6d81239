(* Host-speed probe server for the benchmark: on every input line, run a
   fixed block of short-lived allocation, hashing and table updates (the
   kind of work the simulator does, about 13 ms), then answer "ok". The
   benchmark times the round trip.

   The block runs twice, over a 128 KB table and over a 2 MB one. The
   simulator's heap spans both cache levels, and co-tenants slow the two
   differently: in one episode that slowed chaos rounds by up to 70%, the
   small-table block slowed 38% and the large-table block 92%, and
   normalising by an even mix of the two cut the spread of chaos's wall_s
   over those ten runs from 19% to 6%. A block over an 8 MB table slowed
   160%, more than the simulator.

   It is its own executable, built from the standard library alone, so its
   machine code is the same whatever the rest of the repository contains: an
   in-process probe changed speed by up to 25% between builds that differed
   only in unrelated code, through code layout. *)

let small = Array.make (1 lsl 14) 0
let large = Array.make (1 lsl 18) 0

let block table =
  let mask = Array.length table - 1 and acc = ref 0 in
  for i = 0 to 190_000 do
    let l = [ i; i + 1; i + 2 ] in
    let k = Hashtbl.hash l land mask in
    table.(k) <- table.(k) + List.length l;
    acc := !acc + table.((k * 7919) land mask)
  done;
  ignore (Sys.opaque_identity !acc)

let () =
  try
    while true do
      ignore (input_line stdin);
      block small;
      block large;
      print_string "ok\n";
      flush stdout
    done
  with End_of_file -> ()
