(* Measurement program of the repository benchmark.

   Drives the controller from outside, through its public entry points
   only ([Ef_netsim.Dfz], [Snapshot.assemble/patch/diff],
   [Controller.create/cycle], [Engine.create/step]), in one process and
   one domain: every controller config keeps [shards = 1] and no
   [Ef_util.Pool] is ever created. The loop is closed: one simulated
   30 s cycle is in flight, and the next cycle's input is generated
   only after the previous cycle returns.

   It writes raw measurements (per-cycle wall times and counts,
   set-up samples, spans, output-check verdicts) as one JSON file;
   perfbench/run.py turns them into the reported metrics.

     measure.exe --workload NAME --seed N --seconds S --trace 0|1 --out FILE *)

module Dfz = Ef_netsim.Dfz
module Iface = Ef_netsim.Iface
module Snapshot = Ef_collector.Snapshot
module Controller = Edge_fabric.Controller
module Allocator = Edge_fabric.Allocator
module Projection = Edge_fabric.Projection
module Override = Edge_fabric.Override
module Config = Edge_fabric.Config
module Engine = Ef_sim.Engine
module Registry = Ef_obs.Registry
module Clock = Ef_obs.Clock
module Json = Ef_obs.Json

let cycle_s = 30

(* Timed cycles every run must reach, whatever --seconds says: the
   reported p90 needs ten samples beyond it. *)
let min_cycles = 100

(* --- spans ------------------------------------------------------------

   Spans are kept in memory and written when the run ends. The program
   times its own spans around the calls it makes (names in [own]); the
   stage spans inside the controller and the engine arrive through the
   registry's profile hook. A hook span whose name this program already
   times itself is the same interval seen twice, so it is dropped. Every
   span is tagged with the cycle it belongs to; set-up builds use
   negative cycle numbers. *)

type span = { name : string; t0 : int64; t1 : int64; cycle : int }

type tracer = {
  reg : Registry.t;
  own : string list;
  mutable on : bool;
  mutable cycle : int;
  mutable spans : span list;
  mutable gc_minor : (int * float) list;
}

let tracer reg ~own =
  { reg; own; on = false; cycle = 0; spans = []; gc_minor = [] }

let record tr name t0 t1 =
  tr.spans <- { name; t0; t1; cycle = tr.cycle } :: tr.spans

let hook tr =
  {
    Registry.on_span =
      (fun name t0 t1 -> if not (List.mem name tr.own) then record tr name t0 t1);
    on_counter =
      (fun series values ->
        match (series, List.assoc_opt "minor_words" values) with
        | "gc", Some w -> tr.gc_minor <- (tr.cycle, w) :: tr.gc_minor
        | _ -> ());
  }

let set_tracing tr on =
  tr.on <- on;
  Registry.set_profile_hook tr.reg (if on then Some (hook tr) else None)

(* A raising call aborts the run, so an unfinished span is never needed. *)
let span tr name f =
  if not tr.on then f ()
  else begin
    let t0 = Clock.now_ns () in
    let r = f () in
    record tr name t0 (Clock.now_ns ());
    r
  end

(* dfz-flap takes its interface down for one cycle in [flap_period], so
   two cycles in five (the one it goes down on and the one it comes back
   on) carry interface events: a clear minority, which keeps the cycle
   median off the boundary between quiet and event cycles. *)
let flap_period = 5
let flap_down c = c mod flap_period = 1

(* In a traced run, cycles alternate in blocks of [flap_period] between
   traced and untraced, so both kinds see the same world at the same time
   and the difference between them is the tracing overhead. Each block
   covers one whole flap round. *)
let traced_cycle ~trace c = trace && c / flap_period mod 2 = 0

(* --- per-cycle records ----------------------------------------------- *)

(* Every timed region is timed twice: by the wall clock and by the
   process's CPU time (user + system). The program runs on one domain and
   does no I/O inside a timed region, so on a core of its own the two
   agree. On a shared host they do not: the kernel leaves out of CPU time
   the time the vCPU is taken away (hypervisor steal, other processes),
   which wall time counts. The reported latencies are the CPU times;
   run.py keeps the wall times beside them. *)
type times = { wall_s : float; cpu_s : float }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let c0 = cpu_now () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let wall_s = Clock.elapsed_s t0 in
  (r, { wall_s; cpu_s = cpu_now () -. c0 })

type cycle_rec = {
  index : int;
  dur_s : float;  (** wall time *)
  cpu_s : float;  (** process CPU time, see [timed] *)
  traced : bool;
  iface_events : int;
  churn_s : float;
  dirty : int;
  warm : bool;
  moves : int;
  overrides : int;
  residual : int;
  added : int;
  removed : int;
  retargeted : int;
  dropped : int;
  patch_mw : float;
}

type check = { check_cycle : int; ok : bool; detail : string }

type outcome = {
  prefixes : int;
  setups : times list;
  cycles : cycle_rec list;
  checks : check list;
  failures : string list;
  attempted : int;
  failed : int;
  iface_patches : int;
  flapped_iface : int;
  heap_peak_mb : float;  (** at the end of the timed phase, before the checks *)
  heap_live_mb : float;  (** likewise, see [heap_live_mb] *)
}

let empty_counts =
  {
    index = 0;
    dur_s = 0.0;
    cpu_s = 0.0;
    traced = false;
    iface_events = 0;
    churn_s = 0.0;
    dirty = 0;
    warm = false;
    moves = 0;
    overrides = 0;
    residual = 0;
    added = 0;
    removed = 0;
    retargeted = 0;
    dropped = 0;
    patch_mw = 0.0;
  }

(* Live major-heap data after a full major collection, read while the
   world, the controller and its last table are still in use: what a
   running controller retains. The peak heap size (top_heap_words) is
   kept beside it, but at 200k prefixes it sat on one of two values 18%
   apart depending on the seed, as the runtime grew the heap by one
   increment more or less. *)
let heap_live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let counter reg name =
  match Registry.find reg name with
  | Some (Registry.Counter_m c) -> int_of_float (Ef_obs.Counter.value c)
  | _ -> 0

(* --- dfz worlds --------------------------------------------------------- *)

(* How a dfz workload sets up its world: the interface list (with
   capacities) the feeds report at each cycle, derived once from the aged
   world the run measures. *)
type dfz_world = {
  ifaces_at : int -> Iface.t list;
  flapped : int;  (** the flapped interface, or -1 when the set never changes *)
}

type dfz_spec = {
  dfz : Dfz.config;
  setup_builds : int;
      (** set-up samples taken before the first cycle when [episode = 0] *)
  warmup : int;  (** multiple of [flap_period], so timing starts on a down cycle *)
  episode : int;
      (** 0: one controller runs the whole time. n > 0: the run is a
          sequence of identical episodes of n cycles. Each starts from a
          fresh copy of the aged world with a cold build (a set-up
          sample) and replays the same churn. *)
  world : Dfz.t -> dfz_world;
}

let with_capacity ifc cap =
  Iface.make ~id:(Iface.id ifc) ~name:(Iface.name ifc) ~capacity_bps:cap
    ~shared:(Iface.shared ifc)

let assemble ?obs gen ~ifaces ~rates ~time_s =
  Snapshot.assemble ?obs ~routes:(Dfz.routes gen)
    ~iface_of_peer:(Dfz.iface_of_peer gen) ~ifaces ~prefix_rates:rates ~time_s
    ()

(* The generator provisions one interface at 0.8x its fair share, and
   whether its BGP-preferred load then crosses the threshold depends on
   the seed: at 200k prefixes the relief loop costs from nothing to most
   of the cycle. Workloads that are not about relief give every interface
   room for the whole demand instead, so relief never runs. *)
let roomy gen = List.map (fun i -> with_capacity i (Dfz.total_rate gen)) (Dfz.ifaces gen)

(* The BGP-preferred placement of the world as it stands, and the most
   loaded interface under it. *)
let preferred gen =
  let ifaces = Dfz.ifaces gen in
  let proj =
    Projection.project
      (assemble gen ~ifaces ~rates:(Dfz.current_rates gen) ~time_s:0)
  in
  let load i = Projection.load_bps proj ~iface_id:(Iface.id i) in
  let hot =
    List.fold_left
      (fun h i -> if load i > load h then i else h)
      (List.hd ifaces) ifaces
  in
  (proj, hot, load hot)

(* dfz-relief: capacity pressure sized from the world's own preferred
   placement. The most-loaded interface gets the capacity that makes the
   allocator move exactly its [moves] largest prefixes (largest first is
   the allocator's order). Every other interface has room for the whole
   demand, and every prefix has at least two candidates on distinct
   interfaces, so relief is always feasible and residual overload stays
   zero. Churn moves rates around their base values, so the work per
   cycle stays near [moves]. Fixed derate factors, or a second
   constrained interface, made the work swing with the seed instead:
   from milliseconds to seconds per cycle, or into residual overload,
   depending on where the heavy hitters land. *)
let relief_ifaces ~moves gen =
  let proj, hot, hot_load = preferred gen in
  let h = Iface.id hot in
  let rates =
    List.filteri (fun k _ -> k < moves) (Projection.placements_on proj ~iface_id:h)
    |> List.map (fun (pl : Projection.placement) -> pl.Projection.rate_bps)
  in
  let excess = List.fold_left ( +. ) 0.0 rates in
  (* the smallest moved rate: half of it is the margin that makes the
     last of the [moves] moves necessary and the next one not *)
  let last = List.fold_left Float.min infinity rates in
  let thr = Config.default.Config.overload_threshold in
  List.map
    (fun ifc ->
      if Iface.id ifc = h then
        with_capacity ifc ((hot_load -. excess +. (0.5 *. last)) /. thr)
      else ifc)
    (roomy gen)

(* Dfz.create starts every prefix at its base rate; churn then redraws
   rates around it and bumps route epochs, so for the first few hundred
   cycles the world drifts. The benchmark ages each world past that
   drift before it is measured: cycle [aged_cycles + 1] is the first one
   the controller sees, and the world is stationary from there on, so a
   run's cycle mix does not depend on how many cycles it manages. *)
let aged_cycles = 400

let aged dfz =
  let gen = Dfz.create dfz in
  for c = 1 to aged_cycles do
    ignore (Dfz.churn gen ~cycle:c : Dfz.churn_event)
  done;
  gen

let fixed ifaces = { ifaces_at = (fun _ -> ifaces); flapped = -1 }

let dfz_spec workload ~seed =
  match workload with
  | "dfz-steady" ->
      {
        dfz = Dfz.config ~seed ~n_prefixes:200_000 ();
        setup_builds = 3;
        warmup = 40;
        episode = 0;
        world = (fun gen -> fixed (roomy gen));
      }
  | "dfz-relief" ->
      {
        dfz = Dfz.config ~seed ~n_prefixes:20_000 ();
        setup_builds = 0;
        warmup = 0;
        (* Under sustained pressure hysteresis never releases an override
           whose source interface stays at threshold, so the enforced set
           grows by a few overrides a cycle for as long as the controller
           runs, and so does the cost of a cycle. Identical episodes of
           100 cycles, each on a restarted controller, keep a run's cycle
           mix independent of how many cycles it manages. *)
        episode = 100;
        world = (fun gen -> fixed (relief_ifaces ~moves:1000 gen));
      }
  | "dfz-flap" ->
      (* The most-loaded interface goes down for one cycle in five: its
         outage re-places the most prefixes, and with room everywhere it
         adds no relief work. *)
      {
        dfz = Dfz.config ~seed ~n_prefixes:100_000 ();
        setup_builds = 3;
        warmup = 40;
        episode = 0;
        world =
          (fun gen ->
            let all = roomy gen in
            let _, hot, _ = preferred gen in
            let x = Iface.id hot in
            let down = List.filter (fun i -> Iface.id i <> x) all in
            { ifaces_at = (fun c -> if flap_down c then down else all); flapped = x });
      }
  | w -> invalid_arg ("unknown dfz workload " ^ w)

(* What a sampled cycle produced, kept for the output check. *)
type sample = {
  s_cycle : int;
  s_overrides : Override.t list;
  s_residual : (int * float) list;
  s_enforced : Override.t list;
  s_loads : (int * float) list;
}

let loads_of proj =
  List.map
    (fun i ->
      let id = Iface.id i in
      (id, Projection.load_bps proj ~iface_id:id))
    (Projection.ifaces proj)

let residual_of l = List.map (fun (i, u) -> (Iface.id i, u)) l

(* The output check. [patch] is specified byte-identical to [assemble],
   so a fresh cold build of the same generator state must reproduce the
   warm allocator result and the enforced per-interface loads exactly. *)
let check_dfz spec world samples =
  let gen = aged spec.dfz in
  let last = List.fold_left (fun m s -> max m s.s_cycle) 0 samples in
  let checks = ref [] in
  for c = aged_cycles + 1 to last do
    ignore (Dfz.churn gen ~cycle:c : Dfz.churn_event);
    List.filter (fun s -> s.s_cycle = c) samples
    |> List.iter @@ fun s ->
        let snap =
          assemble gen ~ifaces:(world.ifaces_at c)
            ~rates:(Dfz.current_rates gen) ~time_s:(c * cycle_s)
        in
        let cold = Allocator.run ~config:Config.default snap in
        let enforced =
          Projection.project ~overrides:(Override.lookup s.s_enforced) snap
        in
        let bad = ref [] in
        if not (List.equal Override.equal cold.Allocator.overrides s.s_overrides)
        then bad := "allocator overrides" :: !bad;
        if residual_of cold.Allocator.residual <> s.s_residual then
          bad := "allocator residual" :: !bad;
        if loads_of enforced <> s.s_loads then
          bad := "enforced per-interface loads" :: !bad;
        checks :=
          {
            check_cycle = c;
            ok = !bad = [];
            detail =
              (if !bad = [] then "warm = cold"
               else "warm <> cold: " ^ String.concat ", " !bad);
          }
          :: !checks
  done;
  List.rev !checks

(* The measured part of a dfz run; returns before the output check so
   the run's world and controller are garbage by the time the check
   builds its cold copy. *)
let measure_dfz spec workload ~seconds ~trace =
  let reg = Registry.create () in
  let tr =
    tracer reg
      ~own:
        [ "cycle"; "setup"; "gen.churn"; "collector.assemble"; "collector.patch";
          "collector.diff"; "controller.cycle" ]
  in
  let gen = ref (aged spec.dfz) in
  let world = spec.world !gen in
  let failures = ref [] in
  let fail c msg = failures := Printf.sprintf "cycle %d: %s" c msg :: !failures in
  let attempted = ref 0 in
  (* generator cycle of the last churn applied *)
  let c = ref aged_cycles in
  let setups = ref [] in
  let snap = ref None and ctl = ref None in
  (* set-up: what a restarted, stateless controller pays — a cold table
     build from the generated inputs plus the first cycle on a fresh
     controller, on a compacted heap; run.py reports the median *)
  let build () =
    (* the previous build's table and controller are garbage from here *)
    snap := None;
    ctl := None;
    Gc.compact ();
    tr.cycle <- -1 - List.length !setups;
    set_tracing tr trace;
    incr attempted;
    let rates = Dfz.current_rates !gen and ifaces = world.ifaces_at !c in
    let (s, k, stats), total =
      timed (fun () ->
          span tr "setup" (fun () ->
              let s =
                span tr "collector.assemble" (fun () ->
                    assemble ~obs:reg !gen ~ifaces ~rates ~time_s:(!c * cycle_s))
              in
              let k = Controller.create ~obs:reg ~name:workload () in
              let stats =
                span tr "controller.cycle" (fun () -> Controller.cycle k s)
              in
              (s, k, stats)))
    in
    set_tracing tr false;
    if Controller.degraded stats <> None then fail !c "set-up cycle degraded";
    setups := total :: !setups;
    snap := Some s;
    ctl := Some k
  in
  if spec.episode > 0 then build ()
  else begin
    for _ = 1 to spec.setup_builds do
      build ()
    done;
    (* leave the set-up builds' garbage behind, then let the warm-up
       cycles bring the heap and the major GC back to their steady state
       before timing starts: timing right after a compaction measured
       cycles that grew slower for the first few seconds *)
    Gc.compact ()
  end;
  let cycles = ref [] in
  let samples = ref [] in
  let timed_n = ref 0 in
  let phase_t0 = ref 0L in
  let timing = ref false in
  (* running cycle number over the whole run: span tag and record index *)
  let n = ref 0 in
  (* a cycle that raised leaves the controller in an unknown state, so
     it ends the run; any other failure is counted and the run goes on *)
  let broken = ref false in
  let continue_ () =
    (not !broken)
    && ((not !timing) || !timed_n < min_cycles
       || Clock.elapsed_s !phase_t0 < seconds)
  in
  (* running numbers of the checked cycles *)
  let sampled = Hashtbl.create 4 in
  while continue_ () do
    if spec.episode > 0 && !c = aged_cycles + spec.episode then begin
      (* the next identical episode: a fresh copy of the aged world *)
      gen := aged spec.dfz;
      c := aged_cycles;
      build ()
    end;
    incr c;
    incr n;
    let c = !c and n = !n in
    if n = spec.warmup + 1 then begin
      timing := true;
      phase_t0 := Clock.now_ns ();
      (* checked cycles: the first timed one, and the last; on a flapping
         world also the second, so a down and an up cycle are both checked *)
      Hashtbl.replace sampled n ();
      if world.flapped >= 0 then Hashtbl.replace sampled (n + 1) ()
    end;
    let ctl = Option.get !ctl in
    let traced = traced_cycle ~trace n in
    tr.cycle <- n;
    set_tracing tr traced;
    incr attempted;
    (* workload: the generator runs outside the timed region *)
    let ev, { wall_s = churn_s; _ } =
      timed (fun () -> span tr "gen.churn" (fun () -> Dfz.churn !gen ~cycle:c))
    in
    let ifaces = if world.flapped >= 0 then Some (world.ifaces_at c) else None in
    let prev = Option.get !snap in
    let mw = ref 0.0 in
    match
      timed (fun () ->
        span tr "cycle" (fun () ->
            let next =
              span tr "collector.patch" (fun () ->
                  let w0 = Gc.minor_words () in
                  let s =
                    Snapshot.patch ~obs:reg ~prev ?ifaces
                      ~routes_changed:ev.Dfz.routes_changed
                      ~rate_updates:ev.Dfz.rate_updates ~time_s:(c * cycle_s) ()
                  in
                  mw := Gc.minor_words () -. w0;
                  s)
            in
            let d = span tr "collector.diff" (fun () -> Snapshot.diff prev next) in
            let hits0 = Controller.incremental_hits ctl in
            let stats =
              span tr "controller.cycle" (fun () -> Controller.cycle ctl next)
            in
            (next, d, stats, Controller.incremental_hits ctl > hits0)))
    with
    | exception e ->
        broken := true;
        fail c ("raised " ^ Printexc.to_string e)
    | (next, d, stats, warm), t ->
        snap := Some next;
        let alloc = Controller.allocator_result stats in
        let residual = List.length (Controller.residual_overloads stats) in
        let problems =
          List.filter_map
            (fun (bad, what) -> if bad then Some what else None)
            [
              (Controller.degraded stats <> None, "degraded on healthy feeds");
              (residual > 0, "residual overload on a feasible workload");
              (not warm, "left the warm path");
            ]
        in
        if problems <> [] then fail c (String.concat "; " problems);
        if !timing then begin
          incr timed_n;
          cycles :=
            {
              index = n;
              dur_s = t.wall_s;
              cpu_s = t.cpu_s;
              traced;
              iface_events = List.length d.Snapshot.iface_changes;
              churn_s;
              dirty = List.length ev.Dfz.rate_updates + List.length ev.Dfz.routes_changed;
              warm;
              moves = alloc.Allocator.moves_considered;
              overrides = List.length alloc.Allocator.overrides;
              residual;
              added = List.length (Controller.overrides_added stats);
              removed = List.length (Controller.overrides_removed stats);
              retargeted = List.length (Controller.overrides_retargeted stats);
              dropped = List.length (Controller.guard_dropped stats);
              patch_mw = !mw;
            }
            :: !cycles
        end;
        if Hashtbl.mem sampled n || not (continue_ ()) then
          samples :=
            {
              s_cycle = c;
              s_overrides = alloc.Allocator.overrides;
              s_residual = residual_of alloc.Allocator.residual;
              s_enforced = Controller.overrides_enforced stats;
              s_loads = loads_of (Controller.enforced stats);
            }
            :: !samples
  done;
  set_tracing tr false;
  let heap_live_mb = heap_live_mb () in
  ignore (Sys.opaque_identity (!gen, !ctl));
  let iface_patches = counter reg "controller.incremental.iface_patches" in
  ( tr,
    world,
    !samples,
    {
      prefixes = Snapshot.prefix_count (Option.get !snap);
      setups = List.rev !setups;
      cycles = List.rev !cycles;
      checks = [];
      failures = List.rev !failures;
      attempted = !attempted;
      failed = List.length !failures;
      iface_patches;
      flapped_iface = world.flapped;
      heap_peak_mb = heap_peak_mb ();
      heap_live_mb;
    } )

let run_dfz workload ~seed ~seconds ~trace =
  let spec = dfz_spec workload ~seed in
  let tr, world, samples, o = measure_dfz spec workload ~seconds ~trace in
  let checks = check_dfz spec world samples in
  let failures =
    o.failures
    @ List.filter_map
        (fun k ->
          if k.ok then None
          else Some (Printf.sprintf "cycle %d: %s" k.check_cycle k.detail))
        checks
  in
  (tr, { o with checks; failures; failed = List.length failures })

(* --- engine-peak -------------------------------------------------------

   [Engine] on [Scenario.pop_a] from 20:00, sFlow sampling and
   alternate-path measurement on. Every step assembles a fresh snapshot
   from the PoP's RIB, so every controller cycle is the paper's cold
   recompute. One episode is [Engine.create] and its first step (timed
   as set-up), then [episode_steps] timed steps; identical episodes
   repeat until the run's time is up, so the mix of cycles does not
   depend on how fast the machine is. The first episode is warm-up.

   Every episode starts on a compacted heap, so the episodes really are
   identical, and its start is one set-up sample. The samples are thus
   spread over the whole run: set-up builds made back to back all fell
   into one spell of a busy host, and their median swung by up to 1.9x
   from run to run. *)

let episode_steps = 120
let peak_start_s = 20 * 3600

let run_engine ~seed ~seconds ~trace =
  let reg = Registry.create () in
  let tr = tracer reg ~own:[ "cycle"; "setup"; "engine.create"; "engine.step" ] in
  let config =
    Engine.make_config ~start_s:peak_start_s
      ~duration_s:((episode_steps + 1) * cycle_s)
      ~use_sampling:true ~measure_altpaths:true ~seed ()
  in
  let scenario = Ef_netsim.Scenario.pop_a in
  let failures = ref [] in
  let fail c msg = failures := Printf.sprintf "cycle %d: %s" c msg :: !failures in
  let checks = ref [] in
  let setups = ref [] in
  let cycles = ref [] in
  let attempted = ref 0 in
  let timed_n = ref 0 in
  let global = ref 0 in
  let phase_t0 = ref 0L in
  let broken = ref false in
  (* invariants of a cold allocator run on this step's demand, checked at
     sampled steps outside the timed region *)
  let check_step eng c =
    let world = Engine.world eng in
    let time_s = Engine.now_s eng in
    let snap =
      Snapshot.of_pop world.Ef_netsim.Topo_gen.pop
        ~prefix_rates:(Engine.true_rates eng ~time_s) ~time_s
    in
    let r = Allocator.run ~config:config.Engine.controller_config snap in
    let ok, detail =
      match Allocator.check_invariants ~config:config.Engine.controller_config r with
      | Ok () -> (true, "allocator invariants hold")
      | Error e -> (false, e)
    in
    checks := { check_cycle = c; ok; detail } :: !checks
  in
  (* [Engine.create] plus the first step: what a restarted controller
     pays before its first result *)
  let start () =
    incr attempted;
    let deg0 = counter reg "controller.degraded.cycles" in
    let (eng, _row), setup_s =
      timed (fun () ->
          span tr "setup" (fun () ->
              let eng =
                span tr "engine.create" (fun () ->
                    Engine.create ~config ~obs:reg scenario)
              in
              (eng, span tr "engine.step" (fun () -> Engine.step eng))))
    in
    if counter reg "controller.degraded.cycles" > deg0 then
      fail 0 "set-up cycle degraded";
    (eng, setup_s)
  in
  let prefixes = ref 0 in
  let live_mb = ref 0.0 in
  let episode ~record_it =
    Gc.compact ();
    tr.cycle <- -1 - List.length !setups;
    set_tracing tr trace;
    let eng, setup_s = start () in
    set_tracing tr false;
    prefixes := List.length (Engine.world eng).Ef_netsim.Topo_gen.all_prefixes;
    setups := setup_s :: !setups;
    let ctl = Option.get (Engine.controller eng) in
    let k = ref 1 in
    while (not !broken) && !k <= episode_steps do
      incr global;
      let c = !global in
      let traced = record_it && traced_cycle ~trace c in
      tr.cycle <- c;
      set_tracing tr traced;
      incr attempted;
      if record_it && (!k = 1 || !k = episode_steps) then check_step eng c;
      let before name = counter reg name in
      let a0 = before "controller.overrides.added"
      and r0 = before "controller.overrides.removed"
      and t0' = before "controller.overrides.retargeted"
      and s0 = before "controller.overrides.shed"
      and d0 = before "controller.degraded.cycles"
      and res0 = before "controller.residual_overloads"
      and h0 = Controller.incremental_hits ctl in
      (match
         timed (fun () ->
             span tr "cycle" (fun () ->
                 span tr "engine.step" (fun () -> Engine.step eng)))
       with
      | exception e ->
          broken := true;
          fail c ("raised " ^ Printexc.to_string e)
      | _row, t ->
          let warm = Controller.incremental_hits ctl > h0 in
          let degraded = counter reg "controller.degraded.cycles" > d0 in
          if degraded || warm then
            fail c
              (if degraded then "degraded on healthy feeds"
               else "took the warm path on an unlinked snapshot");
          if record_it then begin
            incr timed_n;
            cycles :=
              {
                empty_counts with
                index = c;
                dur_s = t.wall_s;
                cpu_s = t.cpu_s;
                traced;
                warm;
                residual = before "controller.residual_overloads" - res0;
                added = before "controller.overrides.added" - a0;
                removed = before "controller.overrides.removed" - r0;
                retargeted = before "controller.overrides.retargeted" - t0';
                dropped = before "controller.overrides.shed" - s0;
              }
              :: !cycles
          end);
      incr k
    done;
    if record_it then begin
      live_mb := heap_live_mb ();
      ignore (Sys.opaque_identity eng)
    end
  in
  episode ~record_it:false;
  phase_t0 := Clock.now_ns ();
  while
    (not !broken)
    && (!timed_n < min_cycles || Clock.elapsed_s !phase_t0 < seconds)
  do
    episode ~record_it:true
  done;
  set_tracing tr false;
  List.iter (fun k -> if not k.ok then fail k.check_cycle k.detail) !checks;
  ( tr,
    {
      prefixes = !prefixes;
      setups = List.rev !setups;
      cycles = List.rev !cycles;
      checks = List.rev !checks;
      failures = List.rev !failures;
      attempted = !attempted;
      failed = List.length !failures;
      iface_patches = 0;
      flapped_iface = -1;
      heap_peak_mb = heap_peak_mb ();
      heap_live_mb = !live_mb;
    } )

(* --- output ------------------------------------------------------------ *)

let cycle_json r =
  Json.Obj
    [
      ("i", Json.Int r.index);
      ("dur_s", Json.Float r.dur_s);
      ("cpu_s", Json.Float r.cpu_s);
      ("traced", Json.Bool r.traced);
      ("iface_events", Json.Int r.iface_events);
      ("churn_s", Json.Float r.churn_s);
      ("dirty", Json.Int r.dirty);
      ("warm", Json.Bool r.warm);
      ("moves", Json.Int r.moves);
      ("overrides", Json.Int r.overrides);
      ("residual", Json.Int r.residual);
      ("added", Json.Int r.added);
      ("removed", Json.Int r.removed);
      ("retargeted", Json.Int r.retargeted);
      ("dropped", Json.Int r.dropped);
      ("patch_mw", Json.Float (r.patch_mw /. 1e6));
    ]

let to_json ~workload ~seed ~seconds ~trace tr o =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("prefixes", Json.Int o.prefixes);
      ("flapped_iface", Json.Int o.flapped_iface);
      ("setup_s", Json.List (List.map (fun (t : times) -> Json.Float t.cpu_s) o.setups));
      ("setup_wall_s", Json.List (List.map (fun (t : times) -> Json.Float t.wall_s) o.setups));
      ("cycles", Json.List (List.map cycle_json o.cycles));
      ( "spans",
        Json.List
          (List.rev_map
             (fun s ->
               Json.List
                 [
                   Json.String s.name;
                   Json.Int (Int64.to_int s.t0);
                   Json.Int (Int64.to_int s.t1);
                   Json.Int s.cycle;
                 ])
             tr.spans) );
      ( "gc_minor",
        Json.List
          (List.rev_map
             (fun (c, w) -> Json.List [ Json.Int c; Json.Float (w /. 1e6) ])
             tr.gc_minor) );
      ("iface_patches", Json.Int o.iface_patches);
      ( "checks",
        Json.List
          (List.map
             (fun k ->
               Json.Obj
                 [
                   ("cycle", Json.Int k.check_cycle);
                   ("ok", Json.Bool k.ok);
                   ("detail", Json.String k.detail);
                 ])
             o.checks) );
      ("failures", Json.List (List.map (fun s -> Json.String s) o.failures));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("heap_peak_mb", Json.Float o.heap_peak_mb);
      ("heap_live_mb", Json.Float o.heap_live_mb);
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--out", Arg.Set_string out, "FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "measure.exe --workload NAME --seed N --seconds S --trace 0|1 --out FILE";
  if !out = "" then (prerr_endline "measure: --out is required"; exit 2);
  let trace = !trace = 1 in
  let tr, o =
    match !workload with
    | "dfz-steady" | "dfz-relief" | "dfz-flap" ->
        run_dfz !workload ~seed:!seed ~seconds:!seconds ~trace
    | "engine-peak" -> run_engine ~seed:!seed ~seconds:!seconds ~trace
    | w ->
        prerr_endline ("measure: unknown workload " ^ w);
        exit 2
  in
  let oc = open_out !out in
  output_string oc
    (Json.to_string
       (to_json ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace tr o));
  output_char oc '\n';
  close_out oc
