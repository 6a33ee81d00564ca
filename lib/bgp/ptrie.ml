(* Compressed big-endian patricia trie over packed integer keys.

   A prefix packs into one non-negative int: [(network lsl 6) lor length]
   (38 bits, comfortably inside OCaml's 63-bit int). Because prefixes are
   normalized (Prefix.make masks the host bits), ascending packed-key
   order is exactly the old uncompressed trie's DFS order — parent before
   children, left before right — so [fold]/[to_list]/[covered] keep their
   documented "ascending prefix order" byte-for-byte.

   One node per *binding* plus one branch per key divergence (instead of
   one node per bit of depth): a million-entry RIB costs ~2M small blocks
   rather than ~24M, and [find] walks the key's distinguishing bits only. *)

type 'a t =
  | Empty
  | Leaf of { key : int; p : Prefix.t; v : 'a }
  | Branch of { pre : int; bit : int; l : 'a t; r : 'a t }
      (* [pre]: the bits all keys below share, above [bit]; [bit]: the
         single branching bit (a power of two); [l]: keys with the bit
         clear, [r]: set. *)

let key_of p =
  (Int32.to_int (Ipv4.to_int32 (Prefix.network p)) land 0xFFFFFFFF) lsl 6
  lor Prefix.length p

let key_of_parts addr len =
  ((Int32.to_int (Ipv4.to_int32 addr) land 0xFFFFFFFF) lsl 6) lor len

let empty = Empty

let is_empty = function Empty -> true | Leaf _ | Branch _ -> false

(* highest set bit of [x] (x > 0), by smearing *)
let highest_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  x - (x lsr 1)

let zero_bit k bit = k land bit = 0

(* keep only the bits of [k] strictly above [bit] *)
let mask k bit = k land lnot ((bit lsl 1) - 1)
let match_prefix k pre bit = mask k bit = pre

let join k0 t0 k1 t1 =
  let bit = highest_bit (k0 lxor k1) in
  let pre = mask k0 bit in
  if zero_bit k0 bit then Branch { pre; bit; l = t0; r = t1 }
  else Branch { pre; bit; l = t1; r = t0 }

let branch pre bit l r =
  match (l, r) with Empty, t | t, Empty -> t | _ -> Branch { pre; bit; l; r }

let rec add_key k p v t =
  match t with
  | Empty -> Leaf { key = k; p; v }
  | Leaf { key; _ } ->
      if key = k then Leaf { key = k; p; v }
      else join k (Leaf { key = k; p; v }) key t
  | Branch { pre; bit; l; r } ->
      if match_prefix k pre bit then
        if zero_bit k bit then Branch { pre; bit; l = add_key k p v l; r }
        else Branch { pre; bit; l; r = add_key k p v r }
      else join k (Leaf { key = k; p; v }) pre t

let add p v t = add_key (key_of p) p v t

let rec remove_key k t =
  match t with
  | Empty -> Empty
  | Leaf { key; _ } -> if key = k then Empty else t
  | Branch { pre; bit; l; r } ->
      if match_prefix k pre bit then
        if zero_bit k bit then branch pre bit (remove_key k l) r
        else branch pre bit l (remove_key k r)
      else t

let remove p t = remove_key (key_of p) t

let rec find_key k t =
  match t with
  | Empty -> None
  | Leaf { key; v; _ } -> if key = k then Some v else None
  | Branch { bit; l; r; _ } ->
      if zero_bit k bit then find_key k l else find_key k r

let find p t = find_key (key_of p) t
let mem p t = Option.is_some (find p t)

(* One descent: [f] sees the binding at the bottom of the key's path and
   the path is rebuilt on the way up only if the answer changed it. [at]
   is the key (or branch prefix) of the subtree [t] a new leaf joins. *)
let absent_key k p f t at =
  match f None with None -> t | Some v -> join k (Leaf { key = k; p; v }) at t

let rec update_key k p f t =
  match t with
  | Empty -> ( match f None with None -> t | Some v -> Leaf { key = k; p; v })
  | Leaf { key; v = old; _ } -> (
      if key <> k then absent_key k p f t key
      else
        match f (Some old) with
        | None -> Empty
        | Some v -> if v == old then t else Leaf { key = k; p; v })
  | Branch { pre; bit; l; r } ->
      if not (match_prefix k pre bit) then absent_key k p f t pre
      else if zero_bit k bit then
        let l' = update_key k p f l in
        if l' == l then t else branch pre bit l' r
      else
        let r' = update_key k p f r in
        if r' == r then t else branch pre bit l r'

let update p f t = update_key (key_of p) p f t

(* All containing prefixes of [addr] at length [upto] or shorter: one
   exact probe per length. The compressed trie has no per-depth spine to
   ride, but 33 short walks is still microseconds, and [find_key]
   allocates nothing. *)
let matches_upto addr upto t =
  let acc = ref [] in
  for len = 0 to upto do
    let k = key_of_parts (Ipv4.apply_mask addr len) len in
    match find_key k t with
    | None -> ()
    | Some v -> acc := (Prefix.make addr len, v) :: !acc
  done;
  !acc

let matches addr t = matches_upto addr 32 t
let covers p t = matches_upto (Prefix.network p) (Prefix.length p) t

let longest_match addr t =
  let rec go len =
    if len < 0 then None
    else
      let k = key_of_parts (Ipv4.apply_mask addr len) len in
      match find_key k t with
      | Some v -> Some (Prefix.make addr len, v)
      | None -> go (len - 1)
  in
  go 32

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf { p; v; _ } -> f p v acc
  | Branch { l; r; _ } -> fold f r (fold f l acc)

let iter f t = fold (fun p v () -> f p v) t ()
let cardinal t = fold (fun _ _ n -> n + 1) t 0

let rec map f = function
  | Empty -> Empty
  | Leaf { key; p; v } -> Leaf { key; p; v = f v }
  | Branch { pre; bit; l; r } -> Branch { pre; bit; l = map f l; r = map f r }

let rec filter pred = function
  | Empty -> Empty
  | Leaf { p; v; _ } as t -> if pred p v then t else Empty
  | Branch { pre; bit; l; r } as t ->
      (* keep untouched subtrees physically shared: filtering away nothing
         allocates nothing *)
      let l' = filter pred l and r' = filter pred r in
      if l' == l && r' == r then t else branch pre bit l' r'

let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l
let keys t = List.map fst (to_list t)

(* Subsumed bindings occupy the contiguous key range
   [net lsl 6, (net + 2^(32-len)) lsl 6) — prune whole branches whose
   span misses it. [go t acc] prepends t's in-range bindings (ascending)
   onto [acc]. *)
let covered p t =
  let net = Int32.to_int (Ipv4.to_int32 (Prefix.network p)) land 0xFFFFFFFF in
  let lo = net lsl 6 in
  let hi = (net + (1 lsl (32 - Prefix.length p))) lsl 6 in
  let rec go t acc =
    match t with
    | Empty -> acc
    | Leaf { key; p = q; v } ->
        if key >= lo && key < hi && Prefix.subsumes p q then (q, v) :: acc
        else acc
    | Branch { pre; bit; l; r } ->
        let span_hi = pre lor ((bit lsl 1) - 1) in
        if span_hi < lo || pre >= hi then acc else go l (go r acc)
  in
  go t []

let union f a b =
  fold
    (fun p v acc ->
      update p (function None -> Some v | Some w -> Some (f w v)) acc)
    b a

(* Merge walk over two tries, calling back only where the bindings
   differ; physically-equal subtrees are skipped without descent, so the
   cost is proportional to the *difference* when the tries share
   structure (as consecutive delta snapshots do). *)
let fold2 ~eq f t1 t2 acc =
  let left t acc = fold (fun p v acc -> f p (Some v) None acc) t acc in
  let right t acc = fold (fun p v acc -> f p None (Some v) acc) t acc in
  let rec go t1 t2 acc =
    if t1 == t2 then acc
    else
      match (t1, t2) with
      | Empty, t -> right t acc
      | t, Empty -> left t acc
      | Leaf { key = k1; p; v }, Leaf { key = k2; p = p2; v = v2 } ->
          if k1 = k2 then if eq v v2 then acc else f p (Some v) (Some v2) acc
          else f p (Some v) None (f p2 None (Some v2) acc)
      | Leaf { key; p; v }, (Branch _ as t) ->
          let acc =
            match find_key key t with
            | Some v2 -> if eq v v2 then acc else f p (Some v) (Some v2) acc
            | None -> f p (Some v) None acc
          in
          right (remove_key key t) acc
      | (Branch _ as t), Leaf { key; p; v } ->
          let acc =
            match find_key key t with
            | Some v1 -> if eq v1 v then acc else f p (Some v1) (Some v) acc
            | None -> f p None (Some v) acc
          in
          left (remove_key key t) acc
      | ( Branch { pre = p1; bit = m1; l = l1; r = r1 },
          Branch { pre = p2; bit = m2; l = l2; r = r2 } ) ->
          if m1 = m2 && p1 = p2 then go r1 r2 (go l1 l2 acc)
          else if m1 > m2 && match_prefix p2 p1 m1 then
            if zero_bit p2 m1 then left r1 (go l1 t2 acc)
            else go r1 t2 (left l1 acc)
          else if m2 > m1 && match_prefix p1 p2 m2 then
            if zero_bit p1 m2 then right r2 (go t1 l2 acc)
            else go t1 r2 (right l2 acc)
          else right t2 (left t1 acc)
  in
  go t1 t2 acc
