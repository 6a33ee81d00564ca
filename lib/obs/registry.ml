module Counter = struct
  type t = { c_name : string; mutable count : float }

  let create name = { c_name = name; count = 0.0 }
  let inc t = t.count <- t.count +. 1.0

  let add t d =
    if d < 0.0 then
      invalid_arg
        (Printf.sprintf "Ef_obs.Counter.add: negative delta %g on %s" d t.c_name)
    else t.count <- t.count +. d

  let value t = t.count
  let name t = t.c_name
end

module Gauge = struct
  type t = { g_name : string; mutable g_value : float }

  let create name = { g_name = name; g_value = 0.0 }
  let set t v = t.g_value <- v
  let value t = t.g_value
  let name t = t.g_name
end

module Histogram = struct
  type t = {
    h_name : string;
    mutable samples : float array;
    mutable len : int;
    mutable h_sum : float;
    mutable h_seen : int;
        (* total observations ever, including samples the reservoir
           discarded; [count]/[sum]/[mean] stay exact even after drops *)
    mutable h_max : float; (* running max over every observation *)
  }

  let merge_cap = 65_536

  let create name =
    {
      h_name = name;
      samples = Array.make 16 0.0;
      len = 0;
      h_sum = 0.0;
      h_seen = 0;
      h_max = Float.neg_infinity;
    }

  (* splitmix64 finalizer: the mix that turns the observation counter into
     the reservoir draw must be stateless so replaying the same
     observation sequence replaces the same slots *)
  let mix64 z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)

  (* A long-running controller observes every per-cycle histogram once a
     cycle, and fleet joins merge one histogram per engine per metric, so
     an unbounded sample array grows with cycles x engines. Up to
     [merge_cap] samples are appended; beyond it each observation runs a
     deterministic reservoir step (algorithm R with the hash of the
     observation counter as the draw): it survives with probability
     cap/seen, displacing the slot the draw names, so retained samples
     stay a uniform sample of everything observed. count/sum/mean/max
     remain exact; quantiles become estimates over the reservoir. *)
  let observe t x =
    t.h_seen <- t.h_seen + 1;
    t.h_sum <- t.h_sum +. x;
    if x > t.h_max then t.h_max <- x;
    if t.len < merge_cap then begin
      if t.len = Array.length t.samples then begin
        let bigger = Array.make (2 * t.len) 0.0 in
        Array.blit t.samples 0 bigger 0 t.len;
        t.samples <- bigger
      end;
      t.samples.(t.len) <- x;
      t.len <- t.len + 1
    end
    else begin
      let draw =
        Int64.rem
          (Int64.logand (mix64 (Int64.of_int t.h_seen)) Int64.max_int)
          (Int64.of_int t.h_seen)
      in
      let slot = Int64.to_int draw in
      if slot < merge_cap then t.samples.(slot) <- x
    end

  let count t = t.h_seen
  let retained t = t.len
  let dropped t = t.h_seen - t.len
  let sum t = t.h_sum
  let mean t = if t.h_seen = 0 then 0.0 else t.h_sum /. float_of_int t.h_seen

  let cdf t =
    if t.len = 0 then None
    else Some (Ef_stats.Cdf.of_array (Array.sub t.samples 0 t.len))

  let quantile t q =
    match cdf t with
    | None -> 0.0 (* empty histogram: clamp, so exports never emit NaN *)
    | Some c -> Ef_stats.Cdf.quantile c q

  let max_value t = if t.h_seen = 0 then Float.nan else t.h_max

  let merge_into ~into src =
    let retained_sum = ref 0.0 in
    for i = 0 to src.len - 1 do
      let x = src.samples.(i) in
      retained_sum := !retained_sum +. x;
      observe into x
    done;
    (* samples the source itself had already dropped stay dropped, but the
       totals must carry over so count/sum/max stay exact across joins
       (the sum residue is exactly 0.0 when the source never dropped:
       [retained_sum] replays the same left-to-right additions) *)
    into.h_seen <- into.h_seen + (src.h_seen - src.len);
    into.h_sum <- into.h_sum +. (src.h_sum -. !retained_sum);
    if src.h_max > into.h_max then into.h_max <- src.h_max

  let name t = t.h_name
end

module Event = struct
  type t = {
    ev_name : string;
    ev_time_ns : int64;
    ev_fields : (string * Json.t) list;
  }

  let to_json e =
    Json.Obj
      (("event", Json.String e.ev_name)
      :: ("t_ns", Json.Float (Int64.to_float e.ev_time_ns))
      :: e.ev_fields)
end

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t
  | Span_m of Histogram.t

type sink = Event.t -> unit

type profile_hook = {
  on_span : string -> int64 -> int64 -> unit;
  on_counter : string -> (string * float) list -> unit;
}

type t = {
  table : (string, metric) Hashtbl.t;
  mutable names_rev : string list;
  mutable sinks : sink list;
  mutable span_stack : string list;
  mutable profile : profile_hook option;
}

let create () =
  {
    table = Hashtbl.create 32;
    names_rev = [];
    sinks = [];
    span_stack = [];
    profile = None;
  }

let set_profile_hook t hook = t.profile <- hook
let profile_hook t = t.profile

let default_registry = lazy (create ())
let default () = Lazy.force default_registry

let kind_name = function
  | Counter_m _ -> "counter"
  | Gauge_m _ -> "gauge"
  | Histogram_m _ -> "histogram"
  | Span_m _ -> "span"

let register t name wrap make unwrap =
  match Hashtbl.find_opt t.table name with
  | Some m -> (
      match unwrap m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf
               "Ef_obs.Registry: %s already registered as a %s" name
               (kind_name m)))
  | None ->
      let v = make name in
      Hashtbl.replace t.table name (wrap v);
      t.names_rev <- name :: t.names_rev;
      v

let counter t name =
  register t name
    (fun c -> Counter_m c)
    Counter.create
    (function Counter_m c -> Some c | _ -> None)

let gauge t name =
  register t name
    (fun g -> Gauge_m g)
    Gauge.create
    (function Gauge_m g -> Some g | _ -> None)

let histogram t name =
  register t name
    (fun h -> Histogram_m h)
    Histogram.create
    (function Histogram_m h -> Some h | _ -> None)

let span t name =
  register t name
    (fun h -> Span_m h)
    Histogram.create
    (function Span_m h -> Some h | _ -> None)

let find t name = Hashtbl.find_opt t.table name

let metrics t =
  List.rev_map
    (fun name -> (name, Hashtbl.find t.table name))
    t.names_rev

(* Fold [src] into [into], metric by metric in [src]'s registration order,
   so merging the same registries in the same order always yields the same
   [into] (names, order and values) — the property the parallel fleet's
   after-barrier merge relies on. *)
let merge ~into src =
  let dropped_before = ref 0 and dropped_after = ref 0 in
  let merge_h dst h =
    dropped_before := !dropped_before + Histogram.dropped dst;
    Histogram.merge_into ~into:dst h;
    dropped_after := !dropped_after + Histogram.dropped dst
  in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter_m c -> Counter.add (counter into name) (Counter.value c)
      | Gauge_m g ->
          let dst = gauge into name in
          Gauge.set dst (Gauge.value dst +. Gauge.value g)
      | Histogram_m h -> merge_h (histogram into name) h
      | Span_m h -> merge_h (span into name) h)
    (metrics src);
  (* surface reservoir pressure: operators watching the merged registry can
     see how many samples this merge discarded without diffing histograms *)
  let newly_dropped = !dropped_after - !dropped_before in
  if newly_dropped > 0 then
    Counter.add
      (counter into "obs.merge.dropped_samples")
      (float_of_int newly_dropped)

let reset t =
  Hashtbl.reset t.table;
  t.names_rev <- [];
  t.span_stack <- []

module Span = struct
  let time_h t h f =
    t.span_stack <- Histogram.name h :: t.span_stack;
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        Histogram.observe h (Clock.elapsed_s t0);
        (match t.profile with
        | None -> ()
        | Some hook -> hook.on_span (Histogram.name h) t0 (Clock.now_ns ()));
        t.span_stack <- List.tl t.span_stack)
      f

  let time ?registry name f =
    let t = match registry with Some t -> t | None -> default () in
    time_h t (span t name) f

  let depth t = List.length t.span_stack
  let current t = t.span_stack
end

let add_sink t sink = t.sinks <- t.sinks @ [ sink ]
let has_sinks t = t.sinks <> []

let emit t ~name fields =
  match t.sinks with
  | [] -> ()
  | sinks ->
      let ev =
        { Event.ev_name = name; ev_time_ns = Clock.now_ns (); ev_fields = fields }
      in
      List.iter (fun sink -> sink ev) sinks

let dispatch t ev = List.iter (fun sink -> sink ev) t.sinks

(* Batched replay: one pass per sink instead of one sink-list walk per
   event. Each sink still sees the events in list order, so per-sink
   output is byte-identical to dispatching them one by one; only the
   (unobservable) interleaving across sinks changes. *)
let dispatch_all t evs =
  List.iter (fun sink -> List.iter (fun ev -> sink ev) evs) t.sinks

let memory_sink () =
  let events = ref [] in
  ((fun ev -> events := ev :: !events), fun () -> List.rev !events)

let channel_sink oc ev =
  output_string oc (Json.to_string (Event.to_json ev));
  output_char oc '\n';
  flush oc

let histogram_json ?(unit_suffix = "") h =
  let q p = Json.Float (Histogram.quantile h p) in
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("sum" ^ unit_suffix, Json.Float (Histogram.sum h));
      ("mean" ^ unit_suffix, Json.Float (Histogram.mean h));
      ("p50" ^ unit_suffix, q 0.5);
      ("p90" ^ unit_suffix, q 0.9);
      ("p99" ^ unit_suffix, q 0.99);
      ("max" ^ unit_suffix, Json.Float (Histogram.max_value h));
    ]

let to_json t =
  let section pick to_j =
    List.filter_map
      (fun (name, m) -> Option.map (fun v -> (name, to_j v)) (pick m))
      (metrics t)
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (section
             (function Counter_m c -> Some c | _ -> None)
             (fun c -> Json.Float (Counter.value c))) );
      ( "gauges",
        Json.Obj
          (section
             (function Gauge_m g -> Some g | _ -> None)
             (fun g -> Json.Float (Gauge.value g))) );
      ( "histograms",
        Json.Obj
          (section
             (function Histogram_m h -> Some h | _ -> None)
             (histogram_json ?unit_suffix:None)) );
      ( "spans",
        Json.Obj
          (section
             (function Span_m h -> Some h | _ -> None)
             (histogram_json ~unit_suffix:"_s")) );
    ]

let pp fmt t =
  let pp_hist fmt h ~scale ~unit_ =
    Format.fprintf fmt "n=%d mean=%.3f%s p90=%.3f%s max=%.3f%s"
      (Histogram.count h)
      (Histogram.mean h *. scale)
      unit_
      (Histogram.quantile h 0.9 *. scale)
      unit_
      (Histogram.max_value h *. scale)
      unit_
  in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter_m c ->
          Format.fprintf fmt "counter   %-40s %.0f@." name (Counter.value c)
      | Gauge_m g ->
          Format.fprintf fmt "gauge     %-40s %g@." name (Gauge.value g)
      | Histogram_m h ->
          Format.fprintf fmt "histogram %-40s " name;
          pp_hist fmt h ~scale:1.0 ~unit_:"";
          Format.fprintf fmt "@."
      | Span_m h ->
          Format.fprintf fmt "span      %-40s " name;
          pp_hist fmt h ~scale:1e3 ~unit_:"ms";
          Format.fprintf fmt "@.")
    (metrics t)
