(** Acknowledged-operation histories and their consistency checker.

    The load generator's nemesis mode records every operation it
    issues — invocation and completion wall-clock timestamps, the
    payload, and for reads the result together with the serving
    snapshot generation, replica age, and the member that answered —
    then, after the cluster has converged, probes the final state and
    hands the whole history to {!check}.

    The contract verified (the "acknowledged-history" guarantees
    dkserve actually makes, no more):

    - {e acked-write durability}: every write the cluster acknowledged
      ([Ok_reply]) is present in the final converged state.  A write
      that died ambiguously (sent, never answered) may or may not be —
      it is counted, never judged.
    - {e monotonic reads per connection}: two reads by one connection
      answered by the {e same} member must observe non-decreasing
      snapshot generations, and an edge once observed present on a
      member stays present in that member's later answers to this
      connection (generations are per-process counters, so the checks
      are scoped to the member — reads answered by different members
      may disagree within the staleness bound).
    - {e bounded staleness}: no read is served with a wire-stamped
      replica age beyond the configured staleness bound (plus a small
      grace for clock sampling).
    - {e epoch fencing}: no acknowledged write carries an epoch lower
      than one the history had already observed (in any completed
      operation) before that write was invoked — a deposed primary's
      ack slipping past its fencing would show up exactly here.

    Checking is pure and total: feed it any entry list, by
    construction or from {!load}. *)

type op =
  | Add_edge of { u : int; v : int }
  | Probe of { u : int; v : int }  (** a [Has_edge] read *)

type outcome =
  | Acked of { epoch : int }  (** write acknowledged by that epoch *)
  | Read_ok of {
      present : bool;
      generation : int;  (** the server's write generation (per process) *)
      age_ms : int;  (** wire-stamped replica age; 0 on a primary *)
      endpoint : int;  (** cluster member index that answered; -1 unknown *)
      epoch : int;  (** highest epoch the client had observed *)
    }
  | Ambiguous of string
      (** the operation was sent but never answered — a write may or
          may not have been applied *)
  | Refused of string
      (** a typed refusal (Stale, Not_primary, Overloaded, breaker
          open...): the operation was definitely {e not} applied *)

type entry = {
  conn : int;  (** logical driver/connection id *)
  seq : int;  (** per-connection issue order *)
  op : op;
  invoked_at : float;
  completed_at : float;
  outcome : outcome;
}

(** {1 Recording} *)

type recorder

val recorder : unit -> recorder
val record : recorder -> entry -> unit
(** Domain-safe append. *)

val entries : recorder -> entry list
(** Everything recorded so far, in record order. *)

(** {1 Persistence}

    A plain-text line format, one entry per line, with the final
    converged state (one probe per written edge) appended — so a
    history file is self-contained and re-checkable offline. *)

val save : entries:entry list -> final:(int * int * bool) list -> string -> unit
val load : string -> entry list * (int * int * bool) list
(** @raise Failure on a malformed or wrong-version file. *)

(** {1 Checking} *)

type report = {
  ok : bool;
  violations : string list;  (** human-readable, first {!max_violations} *)
  writes_acked : int;
  writes_ambiguous : int;
  writes_refused : int;
  reads_checked : int;
  max_age_ms : int;  (** largest replica age any read observed *)
}

val max_violations : int

val check :
  ?staleness_grace_ms:int ->
  staleness_bound_ms:int ->
  final:(int * int * bool) list ->
  entry list ->
  report
(** [staleness_bound_ms <= 0] disables the staleness check (matching a
    server run without a bound); [staleness_grace_ms] (default 250)
    absorbs the sampling skew between the server stamping the age and
    the bound it enforces.  [final] must cover every acked write's
    edge; an acked write whose edge is missing from [final] is a
    violation (the probe sweep is part of the history's obligations). *)

val report_to_string : report -> string
(** Multi-line verdict for the load generator's summary. *)
