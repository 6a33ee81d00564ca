module Obs = Ef_obs.Registry
module Json = Ef_obs.Json
module Prom = Ef_obs.Prom

type input = {
  time_s : int;
  duration_s : float;
  degraded : bool;
  skipped : bool;
  stale : bool;
  violations : int;
  residual : int;
}

type active = {
  slo : Slo.t;
  alerts : Alert.t;
  reg : Obs.t;
  g_state : Obs.Gauge.t;
  c_fired : Obs.Counter.t;
  c_overruns : Obs.Counter.t;
  c_transitions : Obs.Counter.t;
  mutable cycle : int;
  mutable transitions_rev : (int * int * Slo.state * Slo.state) list;
}

type t = Noop | Active of active

let noop = Noop

let create ?(slo = Slo.default_config) ?rules ?obs () =
  let reg = match obs with Some r -> r | None -> Obs.create () in
  let rules =
    match rules with
    | Some rs -> rs
    | None -> Alert.default_rules ~deadline_s:slo.Slo.deadline_s ()
  in
  Active
    {
      slo = Slo.create ~config:slo ();
      alerts = Alert.create rules;
      reg;
      (* ".rank" so the sanitized prom name cannot collide with the
         labeled [health_state] family from {!prom_families} *)
      g_state = Obs.gauge reg "health.state.rank";
      c_fired = Obs.counter reg "health.alerts.fired";
      c_overruns = Obs.counter reg "health.cycle.overruns";
      c_transitions = Obs.counter reg "health.state.transitions";
      cycle = 0;
      transitions_rev = [];
    }

let enabled = function Noop -> false | Active _ -> true
let state = function Noop -> Slo.Healthy | Active a -> Slo.state a.slo
let firings = function Noop -> [] | Active a -> Alert.firings a.alerts
let cycles = function Noop -> 0 | Active a -> a.cycle

let transitions = function
  | Noop -> []
  | Active a -> List.rev a.transitions_rev

let slo_exn = function
  | Noop -> invalid_arg "Ef_health.Tracker.slo: noop tracker"
  | Active a -> a.slo

let alerts_exn = function
  | Noop -> invalid_arg "Ef_health.Tracker.alerts: noop tracker"
  | Active a -> a.alerts

let metric_value reg name =
  match Obs.find reg name with
  | Some (Obs.Counter_m c) -> Some (Obs.Counter.value c)
  | Some (Obs.Gauge_m g) -> Some (Obs.Gauge.value g)
  | Some (Obs.Histogram_m h) | Some (Obs.Span_m h) ->
      Some (Obs.Histogram.mean h)
  | None -> None

let observe_cycle t input =
  match t with
  | Noop -> []
  | Active a ->
      a.cycle <- a.cycle + 1;
      let prev = Slo.state a.slo in
      let overruns_before = Slo.overruns_total a.slo in
      let st =
        Slo.observe a.slo
          {
            Slo.in_duration_s = input.duration_s;
            in_degraded = input.degraded;
            in_skipped = input.skipped;
            in_stale = input.stale;
            in_violations = input.violations;
            in_residual = input.residual;
          }
      in
      Obs.Gauge.set a.g_state (float_of_int (Slo.state_rank st));
      let new_overruns = Slo.overruns_total a.slo - overruns_before in
      if new_overruns > 0 then
        Obs.Counter.add a.c_overruns (float_of_int new_overruns);
      if st <> prev then begin
        Obs.Counter.inc a.c_transitions;
        a.transitions_rev <-
          (a.cycle, input.time_s, prev, st) :: a.transitions_rev;
        if Obs.has_sinks a.reg then
          Obs.emit a.reg ~name:"health.state"
            [
              ("cycle", Json.Int a.cycle);
              ("time_s", Json.Int input.time_s);
              ("from", Json.String (Slo.state_to_string prev));
              ("to", Json.String (Slo.state_to_string st));
            ]
      end;
      let cx =
        {
          Alert.cx_cycle = a.cycle;
          cx_time_s = input.time_s;
          cx_duration_s = input.duration_s;
          cx_state = st;
          cx_burn_rate = Slo.burn_rate a.slo;
          cx_overrun_fraction = Slo.overrun_fraction a.slo;
          cx_violations = input.violations;
          cx_residual = input.residual;
          cx_degraded = input.degraded;
          cx_stale = input.stale;
          cx_skipped = input.skipped;
          cx_metric = metric_value a.reg;
        }
      in
      let fired = Alert.step a.alerts cx in
      List.iter
        (fun f ->
          Obs.Counter.inc a.c_fired;
          if Obs.has_sinks a.reg then
            Obs.emit a.reg ~name:"health.alert"
              [
                ("rule", Json.String f.Alert.f_rule);
                ( "severity",
                  Json.String (Alert.severity_to_string f.Alert.f_severity) );
                ("cycle", Json.Int f.Alert.f_cycle);
                ("time_s", Json.Int f.Alert.f_time_s);
                ("detail", Json.String f.Alert.f_detail);
              ])
        fired;
      fired

let prom_families t =
  match t with
  | Noop -> []
  | Active a ->
      let st = Slo.state a.slo in
      let state_sample s =
        Prom.sample
          ~labels:[ ("state", Slo.state_to_string s) ]
          (if st = s then 1.0 else 0.0)
      in
      [
        {
          Prom.fam_name = "health_state";
          fam_help = "health state machine position (1 on the active state)";
          fam_kind = Prom.Gauge;
          fam_samples =
            [
              state_sample Slo.Healthy;
              state_sample Slo.Degraded;
              state_sample Slo.Broken;
            ];
        };
        {
          Prom.fam_name = "alerts_fired";
          fam_help = "alert rule firings (edge-triggered)";
          fam_kind = Prom.Counter;
          fam_samples =
            List.map
              (fun (r, n) ->
                Prom.sample ~suffix:"_total"
                  ~labels:
                    [
                      ("rule", r.Alert.r_name);
                      ( "severity",
                        Alert.severity_to_string r.Alert.r_severity );
                    ]
                  (float_of_int n))
              (Alert.fired_counts a.alerts);
        };
        {
          Prom.fam_name = "health_slo_burn_rate";
          fam_help = "error-budget burn rate over the rolling window";
          fam_kind = Prom.Gauge;
          fam_samples = [ Prom.sample (Slo.burn_rate a.slo) ];
        };
      ]

let summary_json t =
  match t with
  | Noop -> Json.Obj [ ("enabled", Json.Bool false) ]
  | Active a ->
      Json.Obj
        [
          ("enabled", Json.Bool true);
          ("state", Json.String (Slo.state_to_string (Slo.state a.slo)));
          ("cycles", Json.Int (Slo.cycles a.slo));
          ("overruns", Json.Int (Slo.overruns_total a.slo));
          ("impaired", Json.Int (Slo.impaired_total a.slo));
          ("burn_rate", Json.Float (Slo.burn_rate a.slo));
          ("overrun_fraction", Json.Float (Slo.overrun_fraction a.slo));
          ( "transitions",
            Json.List
              (List.map
                 (fun (cycle, time_s, from_st, to_st) ->
                   Json.Obj
                     [
                       ("cycle", Json.Int cycle);
                       ("time_s", Json.Int time_s);
                       ("from", Json.String (Slo.state_to_string from_st));
                       ("to", Json.String (Slo.state_to_string to_st));
                     ])
                 (transitions t)) );
          ( "alerts",
            Json.List (List.map Alert.firing_to_json (firings t)) );
        ]

let pp_summary fmt t =
  match t with
  | Noop -> Format.fprintf fmt "health: tracking disabled@."
  | Active a ->
      Format.fprintf fmt "health: %s  cycles=%d overruns=%d burn=%.3f alerts=%d@."
        (Slo.state_to_string (Slo.state a.slo))
        (Slo.cycles a.slo) (Slo.overruns_total a.slo) (Slo.burn_rate a.slo)
        (List.length (Alert.firings a.alerts));
      (match transitions t with
      | [] -> ()
      | ts ->
          Format.fprintf fmt "state transitions:@.";
          List.iter
            (fun (cycle, time_s, from_st, to_st) ->
              Format.fprintf fmt "  cycle %-5d t=%-6ds %s -> %s@." cycle
                time_s
                (Slo.state_to_string from_st)
                (Slo.state_to_string to_st))
            ts);
      match firings t with
      | [] -> ()
      | fs ->
          Format.fprintf fmt "alerts:@.";
          List.iter (fun f -> Format.fprintf fmt "  %a@." Alert.pp_firing f) fs
