(** Egress interfaces at a PoP.

    Capacity lives on interfaces, not peers: several public peers and the
    route server share one IXP port, while each private interconnect and
    each transit provider gets a dedicated interface. The allocator's whole
    job is keeping these below their thresholds. *)

type t = private {
  id : int;              (** dense, unique within the PoP *)
  name : string;
  capacity_bps : float;
  shared : bool;         (** true for IXP ports carrying several peers *)
}

val make : id:int -> name:string -> capacity_bps:float -> shared:bool -> t
val id : t -> int
val name : t -> string
val capacity_bps : t -> float
val shared : t -> bool

val derate : t -> factor:float -> t
(** The interface as SNMP reports it under a fault: a copy carrying
    [factor] of its capacity, floored at 1 bps so utilization stays
    well-defined on a fully-down link; [t] itself when [factor >= 1]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
