type state = Healthy | Degraded | Broken

let state_rank = function Healthy -> 0 | Degraded -> 1 | Broken -> 2

let state_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Broken -> "broken"

let pp_state fmt s = Format.pp_print_string fmt (state_to_string s)

type config = {
  deadline_s : float;
  target : float;
  window : int;
  degraded_burn : float;
  broken_burn : float;
  broken_consecutive : int;
  recovery_cycles : int;
}

let default_config =
  {
    deadline_s = 1.0;
    target = 0.99;
    window = 120;
    degraded_burn = 1.0;
    broken_burn = 10.0;
    broken_consecutive = 3;
    recovery_cycles = 5;
  }

type input = {
  in_duration_s : float;
  in_degraded : bool;
  in_skipped : bool;
  in_stale : bool;
  in_violations : int;
  in_residual : int;
}

type t = {
  cfg : config;
  ring : bool array;
  mutable ring_idx : int;
  mutable ring_fill : int;
  mutable window_overruns : int;
  mutable cycles : int;
  mutable overruns_total : int;
  mutable impaired_total : int;
  mutable consec_impaired : int;
  mutable consec_clean : int;
  mutable st : state;
  mutable worst_s : float;
}

let create ?(config = default_config) () =
  if not (Float.is_finite config.deadline_s && config.deadline_s > 0.0) then
    invalid_arg "Ef_health.Slo: deadline_s must be positive and finite";
  if config.window <= 0 then invalid_arg "Ef_health.Slo: window must be > 0";
  if config.target >= 1.0 || config.target <= 0.0 then
    invalid_arg "Ef_health.Slo: target must be in (0, 1)";
  {
    cfg = config;
    ring = Array.make config.window false;
    ring_idx = 0;
    ring_fill = 0;
    window_overruns = 0;
    cycles = 0;
    overruns_total = 0;
    impaired_total = 0;
    consec_impaired = 0;
    consec_clean = 0;
    st = Healthy;
    worst_s = 0.0;
  }

let config t = t.cfg
let state t = t.st
let cycles t = t.cycles
let overruns_total t = t.overruns_total
let impaired_total t = t.impaired_total
let worst_duration_s t = t.worst_s

let overrun_fraction t =
  if t.ring_fill = 0 then 0.0
  else float_of_int t.window_overruns /. float_of_int t.ring_fill

(* burn rate: fraction of the error budget (1 - target) the rolling
   window is consuming. 1.0 = burning exactly the budget; > 1.0 = the
   SLO is being missed if this keeps up. *)
let burn_rate t = overrun_fraction t /. (1.0 -. t.cfg.target)

let push_ring t overrun =
  if t.ring_fill = t.cfg.window then begin
    if t.ring.(t.ring_idx) then t.window_overruns <- t.window_overruns - 1
  end
  else t.ring_fill <- t.ring_fill + 1;
  t.ring.(t.ring_idx) <- overrun;
  if overrun then t.window_overruns <- t.window_overruns + 1;
  t.ring_idx <- (t.ring_idx + 1) mod t.cfg.window

(* One observation per controller cycle. The state machine escalates
   immediately (a bad cycle can take Healthy straight to Broken) but
   recovers one rung at a time, and only after [recovery_cycles]
   consecutive clean cycles — flapping inputs therefore pin the state
   high rather than oscillating the alerts below it. *)
let observe t input =
  t.cycles <- t.cycles + 1;
  if input.in_duration_s > t.worst_s then t.worst_s <- input.in_duration_s;
  let overrun = input.in_skipped || input.in_duration_s > t.cfg.deadline_s in
  let impaired =
    overrun || input.in_degraded || input.in_stale || input.in_violations > 0
  in
  push_ring t overrun;
  if overrun then t.overruns_total <- t.overruns_total + 1;
  if impaired then begin
    t.impaired_total <- t.impaired_total + 1;
    t.consec_impaired <- t.consec_impaired + 1
  end
  else t.consec_impaired <- 0;
  let burn = burn_rate t in
  let target_state =
    if
      burn >= t.cfg.broken_burn
      || t.consec_impaired >= t.cfg.broken_consecutive
    then Broken
    else if burn >= t.cfg.degraded_burn || impaired then Degraded
    else Healthy
  in
  if state_rank target_state > state_rank t.st then begin
    t.st <- target_state;
    t.consec_clean <- 0
  end
  else if impaired then t.consec_clean <- 0
  else begin
    t.consec_clean <- t.consec_clean + 1;
    if
      t.consec_clean >= t.cfg.recovery_cycles
      && state_rank t.st > state_rank target_state
    then begin
      t.st <- (match t.st with Broken -> Degraded | _ -> Healthy);
      t.consec_clean <- 0
    end
  end;
  t.st
