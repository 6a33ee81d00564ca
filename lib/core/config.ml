type granularity =
  | Bgp_prefix
  | Split_24

type t = {
  overload_threshold : float;
  iface_thresholds : (int * float) list;
  release_margin : float;
  min_hold_s : int;
  iterative : bool;
  granularity : granularity;
  guard : Guard.config;
  max_snapshot_age_s : int;
  min_rate_confidence : float;
}

let default =
  {
    overload_threshold = 0.95;
    iface_thresholds = [];
    release_margin = 0.10;
    min_hold_s = 60;
    iterative = true;
    granularity = Bgp_prefix;
    guard = Guard.default;
    max_snapshot_age_s = 90;
    min_rate_confidence = 0.0;
  }

let make ?(overload_threshold = default.overload_threshold)
    ?(iface_thresholds = default.iface_thresholds)
    ?(release_margin = default.release_margin) ?(min_hold_s = default.min_hold_s)
    ?(iterative = default.iterative)
    ?(granularity = default.granularity)
    ?(guard = default.guard) ?(max_snapshot_age_s = default.max_snapshot_age_s)
    ?(min_rate_confidence = default.min_rate_confidence) () =
  {
    overload_threshold;
    iface_thresholds;
    release_margin;
    min_hold_s;
    iterative;
    granularity;
    guard;
    max_snapshot_age_s;
    min_rate_confidence;
  }

let override_local_pref = 1000

let release_threshold t = t.overload_threshold -. t.release_margin

let threshold_for t ~iface_id =
  match List.assoc_opt iface_id t.iface_thresholds with
  | Some th -> th
  | None -> t.overload_threshold

let release_threshold_for t ~iface_id =
  threshold_for t ~iface_id -. t.release_margin

let rec ids_unique = function
  | [] -> true
  | (id, _) :: rest ->
      (not (List.mem_assoc id rest)) && ids_unique rest

let validate t =
  if t.overload_threshold <= 0.0 || t.overload_threshold > 1.0 then
    Error "overload_threshold must be in (0, 1]"
  else if
    List.exists (fun (_, th) -> th <= 0.0 || th > 1.0) t.iface_thresholds
  then Error "iface_thresholds values must be in (0, 1]"
  else if List.exists (fun (id, _) -> id < 0) t.iface_thresholds then
    Error "iface_thresholds ids must be non-negative"
  else if not (ids_unique t.iface_thresholds) then
    Error "iface_thresholds ids must be unique"
  else if
    t.release_margin < 0.0
    || List.exists
         (fun (_, th) -> t.release_margin >= th)
         ((-1, t.overload_threshold) :: t.iface_thresholds)
  then Error "release_margin must be in [0, every overload threshold)"
  else if t.min_hold_s < 0 then Error "min_hold_s must be non-negative"
  else if t.max_snapshot_age_s <= 0 then Error "max_snapshot_age_s must be positive"
  else if t.min_rate_confidence < 0.0 || t.min_rate_confidence >= 1.0 then
    Error "min_rate_confidence must be in [0, 1)"
  else Ok ()

let granularity_to_string = function
  | Bgp_prefix -> "bgp-prefix"
  | Split_24 -> "split-24"

let pp fmt t =
  Format.fprintf fmt
    "threshold=%.2f release=%.2f hold=%ds iterative=%b gran=%s"
    t.overload_threshold
    (release_threshold t)
    t.min_hold_s t.iterative
    (granularity_to_string t.granularity);
  List.iter
    (fun (id, th) -> Format.fprintf fmt " if%d=%.2f" id th)
    t.iface_thresholds
