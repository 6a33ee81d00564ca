(** Controller configuration.

    The defaults mirror the published deployment: interfaces are
    considered overloaded at ~95 % projected utilization, detours release
    with a margin below that (so a prefix does not flap across the
    threshold), and the allocator moves whole BGP prefixes, biggest
    first, unless /24 splitting is enabled. *)

type granularity =
  | Bgp_prefix      (** detour exactly the announced prefix *)
  | Split_24        (** split into /24s and move only as much as needed *)

(** The configuration record. Build one with {!make}; derive one from
    another with record update ([{ c with min_hold_s = 0 }]). *)
type t = {
  overload_threshold : float;  (** fraction of capacity, e.g. 0.95 *)
  iface_thresholds : (int * float) list;
      (** per-interface overrides of [overload_threshold], keyed by iface
          id — how compiled [Ef_policy] programs tighten e.g. a shared
          IXP port. Empty (the default) means the global threshold
          everywhere; ids must be unique. *)
  release_margin : float;      (** release when preferred util < threshold − margin *)
  min_hold_s : int;            (** an override persists at least this long *)
  iterative : bool;            (** re-project after every move (the paper's
                                   design); [false] reproduces the naive
                                   single-pass baseline for ablation A1 *)
  granularity : granularity;
  guard : Guard.config;        (** blast-radius budgets applied to the
                                   allocator's output before enforcement —
                                   the one override budget (the allocator
                                   has none of its own) *)
  max_snapshot_age_s : int;    (** degrade (hold last-good overrides) when the
                                   snapshot is older than this vs the
                                   controller's clock; see {!Controller.cycle} *)
  min_rate_confidence : float; (** freeze overrides when the snapshot's total
                                   rate drops below this fraction of the
                                   recent moving average (0 disables — the
                                   default; chaos runs opt in) *)
}

val default : t

val make :
  ?overload_threshold:float ->
  ?iface_thresholds:(int * float) list ->
  ?release_margin:float ->
  ?min_hold_s:int ->
  ?iterative:bool ->
  ?granularity:granularity ->
  ?guard:Guard.config ->
  ?max_snapshot_age_s:int ->
  ?min_rate_confidence:float ->
  unit ->
  t
(** Every omitted field takes its {!default} value. [make] does not
    validate — {!Controller.create} runs {!validate} on whatever it is
    given, and callers can call it directly. *)

val override_local_pref : int
(** LOCAL_PREF of injected override routes (1000): above every
    {!Ef_bgp.Policy.local_pref_for_kind} tier, so an override always
    wins the decision process. *)

val release_threshold : t -> float
(** [overload_threshold -. release_margin]. *)

val threshold_for : t -> iface_id:int -> float
(** The effective overload threshold for one interface:
    [iface_thresholds] override, else [overload_threshold]. *)

val release_threshold_for : t -> iface_id:int -> float
(** [threshold_for t ~iface_id -. release_margin]. *)

val validate : t -> (unit, string) result
(** Sanity checks: thresholds in (0, 1], margin below threshold. *)

val pp : Format.formatter -> t -> unit
