module Bgp = Ef_bgp
open Ef_util

module Ptbl = Bgp.Prefix.Tbl

type entry = {
  ewma : Ewma.t;
  mutable updated_this_interval : bool;
}

(* reacts within a few 30 s intervals without following single-interval
   sampling noise *)
let alpha = 0.3

type t = {
  config : Sflow.config;
  entries : entry Ptbl.t;
}

let create config = { config; entries = Ptbl.create 1024 }

let observe t samples =
  List.iter
    (fun (s : Sflow.sample) ->
      let rate = Sflow.estimate_rate_bps t.config s in
      let entry =
        match Ptbl.find_opt t.entries s.Sflow.sample_prefix with
        | Some e -> e
        | None ->
            let e = { ewma = Ewma.create ~alpha; updated_this_interval = false } in
            Ptbl.replace t.entries s.Sflow.sample_prefix e;
            e
      in
      Ewma.observe entry.ewma rate;
      entry.updated_this_interval <- true)
    samples

let tick_absent t =
  Ptbl.iter
    (fun _ e ->
      if e.updated_this_interval then e.updated_this_interval <- false
      else Ewma.observe e.ewma 0.0)
    t.entries

let estimate_bps t prefix =
  match Ptbl.find_opt t.entries prefix with
  | None -> 0.0
  | Some e -> Ewma.value e.ewma

(* rate descending, ties broken by prefix ascending — the same total
   order as Projection.compare_placement. Sorting by rate alone would
   leave equal-rate prefixes in Hashtbl fold order, which varies with
   table history: nondeterministic output in a pipeline that promises
   canonical order everywhere. *)
let snapshot t =
  Ptbl.fold (fun p e acc -> (p, Ewma.value e.ewma) :: acc) t.entries []
  |> List.sort (fun (pa, a) (pb, b) ->
         let c = Float.compare b a in
         if c <> 0 then c else Bgp.Prefix.compare pa pb)

let tracked t = Ptbl.length t.entries

let drop_below t floor =
  let dead =
    Ptbl.fold
      (fun p e acc -> if Ewma.value e.ewma < floor then p :: acc else acc)
      t.entries []
  in
  List.iter (Ptbl.remove t.entries) dead
