type access =
  | Scan of string
  | Raw

type t = {
  access : access;
  est_index_visits : float;
  est_candidates : float;
  est_data_visits : float;
  est_total : float;
  certain : bool;
}

let access_name = function
  | Scan n -> "scan(" ^ n ^ ")"
  | Raw -> "raw"

let describe t =
  if t.access = Raw then
    Printf.sprintf "raw: est %.0f data visits (no index)" t.est_total
  else if t.certain then
    Printf.sprintf "%s: est %.0f index visits, certain (no validation)"
      (access_name t.access) t.est_index_visits
  else
    Printf.sprintf "%s: est %.0f total (%.0f index visits + %.0f validation over %.0f candidates)"
      (access_name t.access) t.est_total t.est_index_visits t.est_data_visits
      t.est_candidates
