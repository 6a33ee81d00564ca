(** Traffic-rate units and pretty-printing.

    Rates flow through the whole system as bits per second (floats).
    Keeping conversions in one place avoids the classic Mbps/MBps/Gbps
    slip-ups in capacity arithmetic. *)

val bps : float -> float
val kbps : float -> float
val mbps : float -> float
val gbps : float -> float
val tbps : float -> float
(** Constructors: [gbps 10.] is [10e9] bits per second. *)

val to_gbps : float -> float
val to_mbps : float -> float

val to_millibps : float -> int64
(** Quantize a rate to integer millibits/s (truncating toward zero, so
    a rate loses < 1 mbps). Exact rate sums — snapshot totals,
    interface loads, unroutable traffic — accumulate in this unit:
    integer addition is associative, so an aggregate advanced one
    add/subtract at a time equals a from-scratch sum in any order. *)

val of_millibps : int64 -> float
(** Back to bits per second, for reporting. *)

val pp_rate : Format.formatter -> float -> unit
(** Render with an adaptive unit: ["12.5 Gbps"], ["830 Mbps"], … *)

val rate_to_string : float -> string

val pp_percent : Format.formatter -> float -> unit
(** Render a ratio as a percentage: [pp_percent fmt 0.953] gives
    ["95.3%"]. *)

val seconds_per_day : int
val pp_time_of_day : Format.formatter -> int -> unit
(** Render seconds-since-midnight as ["HH:MM"]. *)
