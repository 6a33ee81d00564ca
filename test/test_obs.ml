(* Ef_obs: registry semantics, span timing, journal, engine integration *)

module O = Ef_obs
module N = Ef_netsim
module S = Ef_sim

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- counters ----------------------------------------------------------- *)

let test_counter_monotonic () =
  let reg = O.Registry.create () in
  let c = O.Registry.counter reg "c" in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (O.Counter.value c);
  O.Counter.inc c;
  O.Counter.add c 2.5;
  Alcotest.(check (float 1e-9)) "accumulates" 3.5 (O.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Ef_obs.Counter.add: negative delta -1 on c") (fun () ->
      O.Counter.add c (-1.0));
  Alcotest.(check (float 1e-9)) "unchanged after reject" 3.5 (O.Counter.value c)

let test_get_or_create () =
  let reg = O.Registry.create () in
  let a = O.Registry.counter reg "x" in
  let b = O.Registry.counter reg "x" in
  O.Counter.inc a;
  O.Counter.inc b;
  Alcotest.(check (float 0.0)) "same handle" 2.0 (O.Counter.value a);
  Alcotest.(check bool)
    "kind mismatch rejected" true
    (match O.Registry.gauge reg "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_gauge () =
  let reg = O.Registry.create () in
  let g = O.Registry.gauge reg "g" in
  O.Gauge.set g 5.0;
  O.Gauge.set g 2.0;
  Alcotest.(check (float 0.0)) "last write wins" 2.0 (O.Gauge.value g)

(* --- histograms --------------------------------------------------------- *)

let test_histogram_quantiles () =
  let reg = O.Registry.create () in
  let h = O.Registry.histogram reg "h" in
  Alcotest.(check int) "empty count" 0 (O.Histogram.count h);
  (* regression: empty-histogram quantiles are clamped to 0., never nan —
     a nan here leaks "null" into JSON and an unparsable sample into
     OpenMetrics *)
  Alcotest.(check (float 0.0)) "empty p50 clamped" 0.0
    (O.Histogram.quantile h 0.5);
  Alcotest.(check (float 0.0)) "empty p99 clamped" 0.0
    (O.Histogram.quantile h 0.99);
  for i = 1 to 100 do
    O.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (O.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 5050.0 (O.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (O.Histogram.mean h);
  Alcotest.(check (float 1.0)) "p50" 50.0 (O.Histogram.quantile h 0.5);
  Alcotest.(check (float 1.0)) "p99" 99.0 (O.Histogram.quantile h 0.99);
  Alcotest.(check (float 0.0)) "max" 100.0 (O.Histogram.max_value h)

(* --- spans --------------------------------------------------------------- *)

(* a deterministic clock: each read advances one microsecond *)
let with_fake_clock f =
  let t = ref 0L in
  O.Clock.set_now_ns (fun () ->
      t := Int64.add !t 1_000L;
      !t);
  Fun.protect ~finally:O.Clock.reset f

let test_span_nesting () =
  with_fake_clock @@ fun () ->
  let reg = O.Registry.create () in
  Alcotest.(check int) "idle depth" 0 (O.Registry.Span.depth reg);
  let inner_depth = ref (-1) in
  let inner_stack = ref [] in
  O.Registry.Span.time ~registry:reg "outer" (fun () ->
      O.Registry.Span.time ~registry:reg "inner" (fun () ->
          inner_depth := O.Registry.Span.depth reg;
          inner_stack := O.Registry.Span.current reg));
  Alcotest.(check int) "nested depth" 2 !inner_depth;
  Alcotest.(check (list string))
    "innermost first" [ "inner"; "outer" ] !inner_stack;
  Alcotest.(check int) "unwound" 0 (O.Registry.Span.depth reg);
  let count name =
    match O.Registry.find reg name with
    | Some (O.Registry.Span_m h) -> O.Histogram.count h
    | _ -> -1
  in
  Alcotest.(check int) "outer recorded" 1 (count "outer");
  Alcotest.(check int) "inner recorded" 1 (count "inner")

let test_span_unwinds_on_exception () =
  with_fake_clock @@ fun () ->
  let reg = O.Registry.create () in
  (try
     O.Registry.Span.time ~registry:reg "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "stack unwound" 0 (O.Registry.Span.depth reg);
  match O.Registry.find reg "boom" with
  | Some (O.Registry.Span_m h) ->
      Alcotest.(check int) "duration still recorded" 1 (O.Histogram.count h)
  | _ -> Alcotest.fail "span not registered"

let test_span_duration () =
  with_fake_clock @@ fun () ->
  let reg = O.Registry.create () in
  O.Registry.Span.time ~registry:reg "s" (fun () -> ());
  match O.Registry.find reg "s" with
  | Some (O.Registry.Span_m h) ->
      (* fake clock: 1us per read, one read on entry and one on exit *)
      Alcotest.(check (float 1e-12)) "measured 1us" 1e-6 (O.Histogram.sum h)
  | _ -> Alcotest.fail "span not registered"

(* --- journal ------------------------------------------------------------- *)

let test_memory_sink () =
  let reg = O.Registry.create () in
  Alcotest.(check bool) "no sinks initially" false (O.Registry.has_sinks reg);
  let sink, drain = O.Registry.memory_sink () in
  O.Registry.add_sink reg sink;
  Alcotest.(check bool) "sink attached" true (O.Registry.has_sinks reg);
  O.Registry.emit reg ~name:"ev" [ ("k", O.Json.Int 1) ];
  O.Registry.emit reg ~name:"ev2" [];
  match drain () with
  | [ e1; e2 ] ->
      Alcotest.(check string) "order kept" "ev" e1.O.Event.ev_name;
      Alcotest.(check string) "second" "ev2" e2.O.Event.ev_name;
      Alcotest.(check bool)
        "fields survive" true
        (e1.O.Event.ev_fields = [ ("k", O.Json.Int 1) ])
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_json_escaping () =
  Alcotest.(check string)
    "escapes" {|"a\"b\\c\n"|}
    (O.Json.to_string (O.Json.String "a\"b\\c\n"));
  Alcotest.(check string)
    "non-finite is null" "null"
    (O.Json.to_string (O.Json.Float Float.nan));
  Alcotest.(check string)
    "object" {|{"a":1,"b":[true,null]}|}
    (O.Json.to_string
       (O.Json.Obj
          [
            ("a", O.Json.Int 1);
            ("b", O.Json.List [ O.Json.Bool true; O.Json.Null ]);
          ]))

let test_registry_export () =
  let reg = O.Registry.create () in
  O.Counter.inc (O.Registry.counter reg "c");
  O.Gauge.set (O.Registry.gauge reg "g") 2.0;
  O.Registry.Span.time ~registry:reg "s" (fun () -> ());
  let json = O.Json.to_string (O.Registry.to_json reg) in
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "export has %s" frag)
        true
        (contains json frag))
    [ {|"counters":{"c":1.0}|}; {|"gauges":{"g":2.0}|}; {|"spans":{"s":|}; {|"p99_s"|} ];
  O.Registry.reset reg;
  Alcotest.(check int) "reset drops metrics" 0
    (List.length (O.Registry.metrics reg))

(* --- engine integration -------------------------------------------------- *)

let test_engine_emits_stages () =
  let reg = O.Registry.create () in
  let config =
    S.Engine.make_config ~cycle_s:60 ~duration_s:60 ~start_s:(18 * 3600)
      ~seed:3 ()
  in
  let engine = S.Engine.create ~config ~obs:reg N.Scenario.tiny in
  ignore (S.Engine.step engine);
  let span_count name =
    match O.Registry.find reg name with
    | Some (O.Registry.Span_m h) -> O.Histogram.count h
    | _ -> 0
  in
  let counter_value name =
    match O.Registry.find reg name with
    | Some (O.Registry.Counter_m c) -> O.Counter.value c
    | _ -> -1.0
  in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " recorded once") 1 (span_count name))
    [
      "engine.step";
      "engine.demand";
      "engine.estimate";
      "engine.controller";
      "engine.placement";
      "engine.accounting";
      "controller.cycle";
      "controller.allocate";
      "controller.guard.clamp";
      "controller.reconcile";
      "controller.project";
      "controller.guard.audit";
    ];
  (* of_pop runs once for the controller view and once for ground truth *)
  Alcotest.(check int) "snapshot assembled twice" 2
    (span_count "collector.assemble");
  Alcotest.(check (float 0.0)) "one step" 1.0 (counter_value "engine.steps");
  Alcotest.(check (float 0.0))
    "one controller cycle" 1.0
    (counter_value "controller.cycles");
  ignore (S.Engine.step engine);
  Alcotest.(check (float 0.0)) "deltas accumulate" 2.0
    (counter_value "controller.cycles")

let test_engine_journal () =
  let reg = O.Registry.create () in
  let sink, drain = O.Registry.memory_sink () in
  O.Registry.add_sink reg sink;
  let config =
    S.Engine.make_config ~cycle_s:60 ~duration_s:60 ~start_s:(18 * 3600)
      ~seed:3 ()
  in
  let engine = S.Engine.create ~config ~obs:reg N.Scenario.tiny in
  ignore (S.Engine.step engine);
  let names = List.map (fun e -> e.O.Event.ev_name) (drain ()) in
  Alcotest.(check (list string))
    "one controller event then one engine event"
    [ "controller.cycle"; "engine.step" ]
    names

(* --- Registry.merge: the fleet fold-back after a parallel run ----------- *)

let test_registry_merge_semantics () =
  let a = O.Registry.create () and b = O.Registry.create () in
  O.Counter.add (O.Registry.counter a "pops") 2.0;
  O.Counter.add (O.Registry.counter b "pops") 3.0;
  O.Gauge.set (O.Registry.gauge a "offered") 10.0;
  O.Gauge.set (O.Registry.gauge b "offered") 4.0;
  let ha = O.Registry.histogram a "util" in
  O.Histogram.observe ha 0.5;
  O.Histogram.observe ha 0.7;
  let hb = O.Registry.histogram b "util" in
  O.Histogram.observe hb 0.9;
  (* b also carries a metric a has never seen *)
  O.Counter.inc (O.Registry.counter b "only-in-b");
  O.Registry.merge ~into:a b;
  Alcotest.(check (float 1e-9)) "counters add" 5.0
    (O.Counter.value (O.Registry.counter a "pops"));
  Alcotest.(check (float 1e-9)) "gauges sum (fleet totals)" 14.0
    (O.Gauge.value (O.Registry.gauge a "offered"));
  Alcotest.(check int) "histogram samples append" 3 (O.Histogram.count ha);
  Alcotest.(check (float 1e-9)) "fresh name copied" 1.0
    (O.Counter.value (O.Registry.counter a "only-in-b"));
  (* source is untouched *)
  Alcotest.(check (float 1e-9)) "source intact" 3.0
    (O.Counter.value (O.Registry.counter b "pops"))

let test_registry_merge_deterministic () =
  (* merging equal sources in the same order yields equal registries —
     the property Fleet.run's determinism contract leans on *)
  let mk () =
    let r = O.Registry.create () in
    O.Counter.add (O.Registry.counter r "c") 1.5;
    O.Histogram.observe (O.Registry.histogram r "h") 0.25;
    r
  in
  let into1 = O.Registry.create () and into2 = O.Registry.create () in
  List.iter (fun src -> O.Registry.merge ~into:into1 src) [ mk (); mk () ];
  List.iter (fun src -> O.Registry.merge ~into:into2 src) [ mk (); mk () ];
  Alcotest.(check string) "identical JSON export"
    (O.Json.to_string (O.Registry.to_json into1))
    (O.Json.to_string (O.Registry.to_json into2))

let test_registry_merge_kind_collision () =
  let a = O.Registry.create () and b = O.Registry.create () in
  O.Counter.inc (O.Registry.counter a "x");
  O.Gauge.set (O.Registry.gauge b "x") 1.0;
  (match O.Registry.merge ~into:a b with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

(* regression: histogram append across merges is bounded. Beyond
   Histogram.merge_cap retained samples the merge reservoir-downsamples
   deterministically, count/sum/mean stay exact over everything ever
   observed, and the shortfall is surfaced on the
   obs.merge.dropped_samples counter in the target. *)
let test_registry_merge_histogram_cap () =
  let cap = O.Histogram.merge_cap in
  let mk n base =
    let r = O.Registry.create () in
    let h = O.Registry.histogram r "h" in
    for i = 1 to n do
      O.Histogram.observe h (base +. float_of_int i)
    done;
    r
  in
  let into = O.Registry.create () in
  let n = (cap / 2) + 1000 in
  O.Registry.merge ~into (mk n 0.0);
  O.Registry.merge ~into (mk n 1000000.0);
  let h = O.Registry.histogram into "h" in
  Alcotest.(check int) "count is exact" (2 * n) (O.Histogram.count h);
  Alcotest.(check int) "retention capped" cap (O.Histogram.retained h);
  Alcotest.(check int) "drops accounted" ((2 * n) - cap)
    (O.Histogram.dropped h);
  let exact_sum =
    let tri n = float_of_int (n * (n + 1) / 2) in
    tri n +. (tri n +. (1000000.0 *. float_of_int n))
  in
  Alcotest.(check (float 1.0)) "sum stays exact" exact_sum (O.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "dropped counter mirrors it"
    (float_of_int ((2 * n) - cap))
    (O.Counter.value (O.Registry.counter into "obs.merge.dropped_samples"));
  (* and the downsampling is deterministic: same sources, same order,
     byte-identical export *)
  let redo () =
    let into = O.Registry.create () in
    O.Registry.merge ~into (mk n 0.0);
    O.Registry.merge ~into (mk n 1000000.0);
    O.Json.to_string (O.Registry.to_json into)
  in
  Alcotest.(check string) "reservoir deterministic" (redo ()) (redo ())

(* below the cap, merge still appends every sample and the dropped
   counter never appears — the pre-cap behavior is unchanged *)
let test_registry_merge_no_spurious_drops () =
  let into = O.Registry.create () and src = O.Registry.create () in
  let h = O.Registry.histogram src "h" in
  for i = 1 to 1000 do
    O.Histogram.observe h (float_of_int i)
  done;
  O.Registry.merge ~into src;
  let hm = O.Registry.histogram into "h" in
  Alcotest.(check int) "all retained" 1000 (O.Histogram.retained hm);
  Alcotest.(check int) "no drops" 0 (O.Histogram.dropped hm);
  Alcotest.(check bool) "no dropped-samples counter registered" true
    (O.Registry.find into "obs.merge.dropped_samples" = None)

(* direct observation is bounded by the same reservoir as a merge: beyond
   merge_cap each sample runs the reservoir step, count/sum/mean/max stay
   exact, and replaying the same observations — directly or through a
   merge — retains the same samples *)
let test_histogram_observe_bounded () =
  let cap = O.Histogram.merge_cap in
  let n = 2 * cap in
  let fill () =
    let h = O.Registry.histogram (O.Registry.create ()) "h" in
    (* the largest sample comes first, where the reservoir may displace it *)
    for i = n downto 1 do
      O.Histogram.observe h (float_of_int i)
    done;
    h
  in
  let h = fill () in
  Alcotest.(check int) "retention capped" cap (O.Histogram.retained h);
  Alcotest.(check int) "count is exact" n (O.Histogram.count h);
  Alcotest.(check int) "drops accounted" (n - cap) (O.Histogram.dropped h);
  let exact_sum = float_of_int (n * (n + 1) / 2) in
  Alcotest.(check (float 0.0)) "sum stays exact" exact_sum (O.Histogram.sum h);
  Alcotest.(check (float 0.0)) "mean stays exact"
    (exact_sum /. float_of_int n)
    (O.Histogram.mean h);
  Alcotest.(check (float 0.0)) "max stays exact" (float_of_int n)
    (O.Histogram.max_value h);
  let quantiles h =
    match O.Histogram.cdf h with
    | None -> []
    | Some c ->
        List.init 257 (fun i -> Ef_stats.Cdf.quantile c (float_of_int i /. 256.0))
  in
  Alcotest.(check (list (float 0.0))) "replay retains the same samples"
    (quantiles h) (quantiles (fill ()));
  let merged = O.Registry.histogram (O.Registry.create ()) "h" in
  O.Histogram.merge_into ~into:merged h;
  Alcotest.(check (list (float 0.0))) "merge retains the same samples"
    (quantiles h) (quantiles merged);
  Alcotest.(check int) "merge carries the count" n (O.Histogram.count merged);
  Alcotest.(check (float 0.0)) "merge carries the sum" exact_sum
    (O.Histogram.sum merged);
  Alcotest.(check (float 0.0)) "merge carries the max" (float_of_int n)
    (O.Histogram.max_value merged)

let test_registry_dispatch_replays () =
  let reg = O.Registry.create () in
  let seen = ref [] in
  O.Registry.add_sink reg (fun ev -> seen := ev :: !seen);
  let buffered, _flush = O.Registry.memory_sink () in
  (* replay pre-stamped events through the sinks, as Fleet.run does with
     per-engine buffers after the barrier *)
  let src = O.Registry.create () in
  O.Registry.add_sink src buffered;
  O.Registry.emit src ~name:"cycle.start" [ ("pop", O.Json.String "tiny") ];
  O.Registry.emit src ~name:"cycle.done" [];
  List.iter (fun ev -> O.Registry.dispatch reg ev) (_flush ());
  Alcotest.(check int) "both events arrived" 2 (List.length !seen);
  Alcotest.(check string) "order preserved" "cycle.start"
    (match List.rev !seen with
    | ev :: _ -> ev.O.Registry.Event.ev_name
    | [] -> "")

(* --- Prom rendering edge cases ------------------------------------------ *)

(* every escapable character in a label value: backslash first (so the
   others aren't double-escaped), then quote and newline *)
let test_prom_label_escaping () =
  let fam =
    {
      O.Prom.fam_name = "m";
      fam_help = "h";
      fam_kind = O.Prom.Gauge;
      fam_samples =
        [ O.Prom.sample ~labels:[ ("l", "a\\b\"c\nd") ] 1.0 ];
    }
  in
  let out = O.Prom.render [ fam ] in
  Alcotest.(check bool) "backslash, quote, newline escaped" true
    (contains out "m{l=\"a\\\\b\\\"c\\nd\"} 1.0\n")

(* distinct family names that sanitize to the same exposition name merge
   under one declaration: HELP/TYPE once (first wins), every sample kept —
   never a duplicate TYPE line, which trips OpenMetrics linting *)
let test_prom_sanitize_collision () =
  let fam name help v =
    {
      O.Prom.fam_name = name;
      fam_help = help;
      fam_kind = O.Prom.Gauge;
      fam_samples = [ O.Prom.sample ~labels:[ ("src", name) ] v ];
    }
  in
  let out =
    O.Prom.render [ fam "health.state" "dotted" 1.0; fam "health_state" "underscored" 2.0 ]
  in
  let count_needle needle =
    let n = String.length needle and h = String.length out in
    let rec go i acc =
      if i + n > h then acc
      else go (i + 1) (if String.sub out i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one TYPE declaration" 1
    (count_needle "# TYPE health_state gauge");
  Alcotest.(check int) "one HELP declaration" 1 (count_needle "# HELP health_state");
  Alcotest.(check bool) "first HELP wins" true (contains out "dotted");
  Alcotest.(check bool) "both samples render" true
    (contains out "health_state{src=\"health.state\"} 1.0\n"
    && contains out "health_state{src=\"health_state\"} 2.0\n")

(* fuzz: arbitrary metric/label names and values never produce output
   that breaks the line discipline — every non-comment, non-blank line is
   `name{labels} value` on exactly one line with a sane name *)
let prom_fuzz =
  let arb =
    QCheck.(
      pair (pair printable_string printable_string)
        (pair (list (pair printable_string printable_string)) float))
  in
  QCheck.Test.make ~name:"prom render survives arbitrary names and labels"
    ~count:200 arb
    (fun ((name, help), (labels, value)) ->
      let fam =
        {
          O.Prom.fam_name = name;
          fam_help = help;
          fam_kind = O.Prom.Counter;
          fam_samples = [ O.Prom.sample ~suffix:"_total" ~labels value ];
        }
      in
      let out = O.Prom.render [ fam ] in
      let ok_name_char c =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = ':'
      in
      String.split_on_char '\n' out
      |> List.for_all (fun line ->
             line = ""
             || String.length line >= 1
                && (line.[0] = '#'
                   || ok_name_char line.[0]
                      && (not (String.contains line '\r'))
                      && String.contains line ' ')))

(* golden: the full exposition of a fixed registry + extra families is
   pinned byte for byte; regenerate with
   GOLDEN_UPDATE=1 dune exec test/main.exe -- test obs *)
let test_prom_golden () =
  let reg = O.Registry.create () in
  O.Counter.add (O.Registry.counter reg "engine.steps") 42.0;
  O.Gauge.set (O.Registry.gauge reg "offered.bps") 1.5e9;
  let h = O.Registry.histogram reg "cycle.wall_s" in
  List.iter (O.Histogram.observe h) [ 0.25; 0.5; 0.125 ];
  ignore (O.Registry.histogram reg "empty.hist");
  O.Histogram.observe (O.Registry.span reg "controller.cycle") 0.033;
  let extra =
    [
      {
        O.Prom.fam_name = "health_state";
        fam_help = "controller health state (1 = current)";
        fam_kind = O.Prom.Gauge;
        fam_samples =
          [
            O.Prom.sample ~labels:[ ("state", "healthy") ] 1.0;
            O.Prom.sample ~labels:[ ("state", "degraded") ] 0.0;
          ];
      };
      {
        O.Prom.fam_name = "alerts_fired";
        fam_help = "alert firings with \"quoted\\escaped\nnewline\" labels";
        fam_kind = O.Prom.Counter;
        fam_samples =
          [
            O.Prom.sample ~suffix:"_total"
              ~labels:[ ("rule", "guard\\violation\n\"p99\"") ]
              3.0;
          ];
      };
    ]
  in
  let out = O.Prom.of_registry ~extra reg in
  let path =
    let candidates = [ "golden/metrics.prom"; "test/golden/metrics.prom" ] in
    match List.find_opt (fun p -> Sys.file_exists (Filename.dirname p)) candidates with
    | Some p -> p
    | None -> Alcotest.fail "no golden directory found"
  in
  if Sys.getenv_opt "GOLDEN_UPDATE" = Some "1" then begin
    let oc = open_out_bin path in
    output_string oc out;
    close_out oc
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf
      "missing golden file %s — create it with GOLDEN_UPDATE=1 dune exec \
       test/main.exe -- test obs"
      path
  else begin
    let ic = open_in_bin path in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if not (String.equal expected out) then
      Alcotest.failf
        "OpenMetrics exposition differs from %s; if intentional, regenerate \
         with GOLDEN_UPDATE=1 dune exec test/main.exe -- test obs"
        path
  end

let suite =
  [
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
    Alcotest.test_case "get-or-create handles" `Quick test_get_or_create;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span unwinds on exception" `Quick
      test_span_unwinds_on_exception;
    Alcotest.test_case "span duration" `Quick test_span_duration;
    Alcotest.test_case "memory sink" `Quick test_memory_sink;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "registry export + reset" `Quick test_registry_export;
    Alcotest.test_case "engine emits stage spans" `Quick
      test_engine_emits_stages;
    Alcotest.test_case "engine journal events" `Quick test_engine_journal;
    Alcotest.test_case "registry merge semantics" `Quick
      test_registry_merge_semantics;
    Alcotest.test_case "registry merge deterministic" `Quick
      test_registry_merge_deterministic;
    Alcotest.test_case "registry merge kind collision" `Quick
      test_registry_merge_kind_collision;
    Alcotest.test_case "registry merge histogram cap (reservoir)" `Quick
      test_registry_merge_histogram_cap;
    Alcotest.test_case "registry merge below cap unchanged" `Quick
      test_registry_merge_no_spurious_drops;
    Alcotest.test_case "histogram observe bounded (reservoir)" `Quick
      test_histogram_observe_bounded;
    Alcotest.test_case "registry dispatch replays" `Quick
      test_registry_dispatch_replays;
    Alcotest.test_case "prom label escaping" `Quick test_prom_label_escaping;
    Alcotest.test_case "prom sanitize collision dedupe" `Quick
      test_prom_sanitize_collision;
    Alcotest.test_case "prom exposition golden" `Quick test_prom_golden;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prom_fuzz ]
