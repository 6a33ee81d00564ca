(** The metric registry: named counters, gauges, histograms and span
    timings, plus a structured event journal with pluggable sinks.

    One registry is one export domain. Library code takes an optional
    registry and falls back to the process-wide {!default}, so a normal
    run needs no plumbing (everything lands in one place, which is what
    [efctl --metrics] prints), while tests create private registries and
    assert on exact deltas.

    Metric handles are get-or-create by name: the first call registers,
    later calls return the same handle. Hot paths (the controller cycle)
    look handles up once at construction time and then touch only a
    mutable cell per event, so instrumentation cost is a couple of clock
    reads per stage. *)

module Counter : sig
  type t

  val inc : t -> unit
  val add : t -> float -> unit
  (** Counters are monotonic: [add] raises [Invalid_argument] on a
      negative delta. *)

  val value : t -> float
  val name : t -> string
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one sample. The first {!merge_cap} samples are appended;
      beyond the cap each one runs a deterministic reservoir step
      (algorithm R keyed on a hash of the observation counter): it
      survives with probability cap/count, displacing the slot the draw
      names, so the retained set stays a uniform sample of everything
      observed and memory stays bounded however long the run.
      Deterministic: the same observation sequence yields the same
      retained samples. *)

  val count : t -> int
  (** Total observations ever, including samples discarded by the
      reservoir — exact even after drops. *)

  val retained : t -> int
  (** Samples currently held (what {!cdf}/{!quantile} are computed over).
      Equal to {!count} until it crosses {!merge_cap}. *)

  val dropped : t -> int
  (** [count - retained]: samples the reservoir discarded. *)

  val sum : t -> float
  val mean : t -> float
  (** 0 when empty. Both exact over all observations, including dropped
      ones. *)

  val cdf : t -> Ef_stats.Cdf.t option
  (** Retained samples so far as an {!Ef_stats.Cdf}; [None] when empty. *)

  val quantile : t -> float -> float
  (** Via {!cdf}; clamped to [0.] when empty (a [nan] here would leak
      [null]s into JSON export and unparsable values into OpenMetrics).
      Once the reservoir has dropped samples this is an estimate over a
      uniform sample of the full stream. *)

  val max_value : t -> float
  (** Largest sample ever observed, dropped ones included (a running
      max); [nan] when empty. *)

  val merge_cap : int
  (** Retained-sample bound (65536) of every histogram: {!observe} runs
      the reservoir step beyond it, and {!merge_into} inherits it by
      replaying samples through {!observe}. *)

  val merge_into : into:t -> t -> unit
  (** Replay the second histogram's retained samples through {!observe}
      on [into], in observation order, then carry over what the source
      had already dropped, so {!count}/{!sum}/{!mean}/{!max_value} stay
      exact and {!dropped} reports the discard total. Deterministic: the
      same merge sequence yields the same retained samples. *)

  val name : t -> string
end

module Event : sig
  type t = {
    ev_name : string;
    ev_time_ns : int64;  (** monotonic stamp ({!Clock.now_ns}) *)
    ev_fields : (string * Json.t) list;
  }

  val to_json : t -> Json.t
end

type t

val create : unit -> t

val default : unit -> t
(** The process-wide registry every un-plumbed call site reports into. *)

(** {2 Metric handles (get-or-create)}

    Each raises [Invalid_argument] if [name] is already registered as a
    different metric kind. *)

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

val span : t -> string -> Histogram.t
(** Like {!histogram} but registered as a span-duration metric (seconds);
    kept distinct so exports can report timing attribution separately.
    Usually reached through {!Span.time} rather than directly. *)

(** {2 Introspection} *)

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t
  | Span_m of Histogram.t

val find : t -> string -> metric option
val metrics : t -> (string * metric) list
(** In registration order. *)

val reset : t -> unit
(** Drop all metrics (sinks stay attached). *)

val merge : into:t -> t -> unit
(** Fold the second registry's metrics into [into], in the source's
    registration order: counters add, gauges sum (fleet-totals
    semantics), histograms and spans append their samples (bounded by
    {!Histogram.merge_cap} with reservoir downsampling; any samples
    discarded by this call are added to the [obs.merge.dropped_samples]
    counter in [into]). Metrics missing from [into] are registered.
    Deterministic: merging equal registries in the same order produces
    equal targets. The source is left untouched. Raises
    [Invalid_argument] if a name is registered with different kinds in
    the two registries. *)

(** {2 Span timing} *)

module Span : sig
  val time : ?registry:t -> string -> (unit -> 'a) -> 'a
  (** Run the thunk, record its monotonic duration (seconds) into the
      span histogram [name], and return its result. Spans nest: the
      registry tracks the stack of open spans, and the duration is
      recorded (and the stack unwound) even when the thunk raises. *)

  val time_h : t -> Histogram.t -> (unit -> 'a) -> 'a
  (** Same with a pre-fetched handle — the hot-path form. *)

  val depth : t -> int
  (** Number of currently-open spans (0 outside any span). *)

  val current : t -> string list
  (** Open span names, innermost first. *)
end

(** {2 Profiling hook}

    A registry can carry at most one profile hook; when set, every
    {!Span.time}/{!Span.time_h} completion also reports the span name and
    its raw monotonic start/end stamps (ns) to [on_span], and
    instrumented call sites may push named counter series (e.g. per-cycle
    GC deltas) through [on_counter]. This is how [Ef_health.Profiler]
    taps every already-instrumented stage without re-instrumenting call
    sites; cost when unset is one option match per span. *)

type profile_hook = {
  on_span : string -> int64 -> int64 -> unit;  (** name, t0_ns, t1_ns *)
  on_counter : string -> (string * float) list -> unit;
      (** series name, labeled values *)
}

val set_profile_hook : t -> profile_hook option -> unit
val profile_hook : t -> profile_hook option

(** {2 Event journal} *)

type sink = Event.t -> unit

val add_sink : t -> sink -> unit
val has_sinks : t -> bool
(** Emitting is a no-op without sinks; call sites building expensive
    field lists can guard on this. *)

val emit : t -> name:string -> (string * Json.t) list -> unit
(** Stamp an event with the monotonic clock and hand it to every sink. *)

val dispatch : t -> Event.t -> unit
(** Hand an already-stamped event to every sink, keeping its original
    timestamp — the replay half of buffering another registry's journal
    (see {!memory_sink}). *)

val dispatch_all : t -> Event.t list -> unit
(** {!dispatch} a whole buffered journal: one pass per sink rather than
    one sink-list walk per event. Each sink sees the events in list
    order, so per-sink output is byte-identical to event-by-event
    dispatch. *)

val memory_sink : unit -> sink * (unit -> Event.t list)
(** In-memory journal for tests: the second function returns everything
    emitted so far, in order. *)

val channel_sink : out_channel -> sink
(** JSON-lines: one compact JSON object per event, flushed per line. *)

(** {2 Export} *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...},
     "spans": {...}}] — histogram and span entries carry count, mean,
    p50/p90/p99 and max (spans in seconds). *)

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line summary of the same content. *)
