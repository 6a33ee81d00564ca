type wrap = lane:int -> (unit -> unit) -> unit

(* A spawned domain's default minor heap (256k words) thrashes under the
   allocation pressure of a whole PoP's simulation task: most of a task's
   garbage is short-lived scratch that a bigger nursery reclaims for
   free, and a higher space_overhead keeps the shared major GC from
   stealing slices mid-task. ~32 MB of nursery per domain is cheap next
   to a million-prefix table. Minor heaps are per-domain in OCaml 5, so
   the resize applies to the calling domain alone. *)
let tune_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22; space_overhead = 200 }

let map ?(wrap = fun ~lane:_ task -> task ()) ~jobs f items =
  if jobs < 1 || jobs > 128 then
    invalid_arg (Printf.sprintf "Pool.map: jobs %d not in [1, 128]" jobs);
  let run ~lane item =
    let r = ref None in
    wrap ~lane (fun () -> r := Some (f item));
    match !r with
    | Some v -> v
    | None -> invalid_arg "Pool.map: wrap hook did not run its task"
  in
  if jobs = 1 then List.map (run ~lane:0) items
  else begin
    let arr = Array.of_list items in
    let n = Array.length arr in
    (* results.(i) is written by whichever lane took index i; the joins
       below publish every write to the caller *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec drain ~lane =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (try Ok (run ~lane arr.(i)) with e -> Error e);
        drain ~lane
      end
    in
    (* at the runtime's domain limit (reachable through nested maps),
       the lanes already running finish the work *)
    let rec spawn lane =
      if lane >= min jobs n then []
      else
        match
          Domain.spawn (fun () ->
              tune_gc ();
              drain ~lane)
        with
        | d -> d :: spawn (lane + 1)
        | exception Failure _ -> []
    in
    let domains = spawn 1 in
    drain ~lane:0;
    List.iter Domain.join domains;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end
