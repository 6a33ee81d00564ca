type task = unit -> unit
type wrap = lane:int -> task -> unit

type gc_tune = { minor_heap_words : int; space_overhead : int }

(* A worker domain's default minor heap (256k words) thrashes under the
   allocation pressure of a whole PoP's simulation task: most of a task's
   garbage is short-lived scratch that a bigger nursery reclaims for
   free, and a higher space_overhead keeps the shared major GC from
   stealing slices mid-task. ~32 MB of nursery per domain is cheap next
   to a million-prefix table. *)
let default_gc_tune = { minor_heap_words = 1 lsl 22; space_overhead = 200 }

let apply_gc_tune tune =
  let g = Gc.get () in
  Gc.set
    {
      g with
      Gc.minor_heap_size = tune.minor_heap_words;
      space_overhead = tune.space_overhead;
    }

(* Tasks running inside a map must never drive another map: every lane of
   the inner map could be parked inside the outer one, and the two would
   deadlock waiting for each other. The flag travels with the domain —
   workers set it for life at birth, the caller sets it only while it is
   executing tasks — and [map] checks it to degrade gracefully to
   sequential execution instead. *)
let in_task_key = Domain.DLS.new_key (fun () -> false)

(* queued tasks carry their own wrap (it can differ per [map] call), so
   the worker just needs to tell them which lane is running them *)
type lane_task = int -> unit

type t = {
  pool_jobs : int;
  wrap : wrap;
  gc : gc_tune option;
  mutex : Mutex.t;
  work : Condition.t; (* work queued, or shutdown *)
  idle : Condition.t; (* a map batch finished draining *)
  queue : lane_task Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.pool_jobs

(* Workers loop forever: sleep until a task (or shutdown) appears, run the
   task outside the lock, repeat. Tasks never raise — map wraps user code
   in a result. [lane] identifies the executing lane (0 = the caller,
   1..jobs-1 = spawned workers) for the wrap hook's attribution. *)
let rec worker_loop t ~lane =
  Mutex.lock t.mutex;
  let rec next () =
    match Queue.take_opt t.queue with
    | Some task -> Some task
    | None ->
        if not t.live then None
        else begin
          Condition.wait t.work t.mutex;
          next ()
        end
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
      task lane;
      worker_loop t ~lane

let create ?(gc = Some default_gc_tune) ?(wrap = fun ~lane:_ task -> task ())
    ~jobs () =
  if jobs < 1 || jobs > 128 then
    invalid_arg (Printf.sprintf "Pool.create: jobs %d not in [1, 128]" jobs);
  let t =
    {
      pool_jobs = jobs;
      wrap;
      gc;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            (* per-domain tuning at worker birth: each domain owns its
               minor heap, so the resize applies to this worker alone *)
            Option.iter apply_gc_tune t.gc;
            Domain.DLS.set in_task_key true;
            worker_loop t ~lane:(i + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?wrap ~jobs f =
  let t = create ?wrap ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map ?wrap t f items =
  let wrap = Option.value wrap ~default:t.wrap in
  if Domain.DLS.get in_task_key then
    (* nested call from inside some pool task: run sequentially on this
       lane, without the wrap hook (the enclosing task is already inside
       its own wrap span) *)
    List.map f items
  else if t.pool_jobs <= 1 then
    List.map
      (fun item ->
        let r = ref None in
        wrap ~lane:0 (fun () -> r := Some (f item));
        match !r with
        | Some v -> v
        | None -> invalid_arg "Pool.map: wrap hook did not run its task")
      items
  else begin
    let arr = Array.of_list items in
    let n = Array.length arr in
    if n = 0 then []
    else begin
      (* results.(i) is written by exactly one task; the write is
         published to the caller through the mutex-guarded [remaining]
         decrement, so no per-slot synchronization is needed *)
      let results = Array.make n None in
      let remaining = ref n in
      let run_one i =
        let r = try Ok (f arr.(i)) with e -> Error e in
        results.(i) <- Some r;
        Mutex.lock t.mutex;
        decr remaining;
        if !remaining = 0 then Condition.broadcast t.idle;
        Mutex.unlock t.mutex
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.add (fun lane -> wrap ~lane (fun () -> run_one i)) t.queue
      done;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (* the calling domain is a lane too: drain the queue alongside the
         workers, then wait out the stragglers *)
      let rec drive () =
        Mutex.lock t.mutex;
        if !remaining = 0 then Mutex.unlock t.mutex
        else
          match Queue.take_opt t.queue with
          | Some task ->
              Mutex.unlock t.mutex;
              Domain.DLS.set in_task_key true;
              Fun.protect
                ~finally:(fun () -> Domain.DLS.set in_task_key false)
                (fun () -> task 0);
              drive ()
          | None ->
              Condition.wait t.idle t.mutex;
              Mutex.unlock t.mutex;
              drive ()
      in
      drive ();
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error e) -> raise e
             | None -> assert false)
           results)
    end
  end

(* --- the process-wide shared pool ------------------------------------ *)

(* One long-lived pool reused across Fleet.run calls and bench
   iterations: domains spawn once per size, not per call. The cell is
   guarded so the size-change path (shutdown + respawn) is safe even if
   two entry points race, but the intended discipline is main-domain
   use. *)
let global_mutex = Mutex.create ()
let global_cell = ref None

let global ?gc ~jobs () =
  Mutex.lock global_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock global_mutex)
    (fun () ->
      match !global_cell with
      | Some t when t.pool_jobs = jobs && t.live -> t
      | prev ->
          (match prev with Some t -> shutdown t | None -> ());
          let t = create ?gc ~jobs () in
          global_cell := Some t;
          t)

let shutdown_global () =
  Mutex.lock global_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock global_mutex)
    (fun () ->
      match !global_cell with
      | None -> ()
      | Some t ->
          shutdown t;
          global_cell := None)
