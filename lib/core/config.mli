(** Controller configuration.

    The defaults mirror the published deployment: interfaces are
    considered overloaded at ~95 % projected utilization, detours release
    with a margin below that (so a prefix does not flap across the
    threshold), and the allocator moves whole BGP prefixes unless /24
    splitting is enabled. *)

type order =
  | Largest_first   (** move the biggest prefixes first: fewest overrides *)
  | Smallest_first  (** move the smallest: finer control, more overrides *)

type granularity =
  | Bgp_prefix      (** detour exactly the announced prefix *)
  | Split_24        (** split into /24s and move only as much as needed *)

(** The configuration record.

    {b Deprecated for construction:} build configurations with {!make}
    and the [with_*] updaters instead of record literals or record
    update — new fields are added as the controller grows, and every
    literal construction breaks when they land. The record stays exposed
    (reading fields is fine) for the transition. *)
type t = {
  overload_threshold : float;  (** fraction of capacity, e.g. 0.95 *)
  iface_thresholds : (int * float) list;
      (** per-interface overrides of [overload_threshold], keyed by iface
          id — how compiled [Ef_policy] programs tighten e.g. a shared
          IXP port. Empty (the default) means the global threshold
          everywhere; ids must be unique. *)
  release_margin : float;      (** release when preferred util < threshold − margin *)
  min_hold_s : int;            (** an override persists at least this long *)
  order : order;
  iterative : bool;            (** re-project after every move (the paper's
                                   design); [false] reproduces the naive
                                   single-pass baseline for ablation A1 *)
  granularity : granularity;
  override_local_pref : int;   (** LOCAL_PREF of injected routes; must beat
                                   every policy tier *)
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
  ?order:order ->
  ?iterative:bool ->
  ?granularity:granularity ->
  ?override_local_pref:int ->
  ?guard:Guard.config ->
  ?max_snapshot_age_s:int ->
  ?min_rate_confidence:float ->
  unit ->
  t
(** Every omitted field takes its {!default} value. [make] does not
    validate — {!Controller.create} runs {!validate} on whatever it is
    given, and callers can call it directly. *)

(** Functional updaters, argument-last so they chain:
    [Config.default |> Config.with_min_hold_s 0 |> Config.with_release_margin 0.0] *)

val with_overload_threshold : float -> t -> t
val with_iface_thresholds : (int * float) list -> t -> t
val with_release_margin : float -> t -> t
val with_min_hold_s : int -> t -> t
val with_order : order -> t -> t
val with_iterative : bool -> t -> t
val with_granularity : granularity -> t -> t
val with_override_local_pref : int -> t -> t
val with_guard : Guard.config -> t -> t
val with_max_snapshot_age_s : int -> t -> t
val with_min_rate_confidence : float -> t -> t

val release_threshold : t -> float
(** [overload_threshold -. release_margin]. *)

val threshold_for : t -> iface_id:int -> float
(** The effective overload threshold for one interface:
    [iface_thresholds] override, else [overload_threshold]. *)

val release_threshold_for : t -> iface_id:int -> float
(** [threshold_for t ~iface_id -. release_margin]. *)

val validate : t -> (unit, string) result
(** Sanity checks: thresholds in (0, 1], margin below threshold,
    override LOCAL_PREF above the policy tiers. *)

val pp : Format.formatter -> t -> unit
