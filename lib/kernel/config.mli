(** The unified execution configuration: one record for the optional
    knobs that used to be threaded as inconsistent [?jobs] / [?budget] /
    [?strategy] arguments across the checkers, the transaction layer,
    and the CLI subcommands. {!Fdbs_service.Session} carries one of
    these; the refinement checkers and {!Design.verify} accept one as
    [?config]. *)

type t = {
  jobs : int option;
      (** parallel sweep width; [None] = {!Pool.default_jobs} *)
  strategy : [ `Auto | `Naive | `Compiled ];
      (** relational-term / wff evaluation strategy *)
  star_limit : int option;
      (** cap on distinct states explored by iteration fixpoints *)
  steps : int option;  (** budget: step fuel per request *)
  states : int option;  (** budget: distinct-state cap per request *)
  ms : int option;  (** budget: wall-clock deadline per request, ms *)
  check_constraints : bool;
      (** check the schema's integrity constraints at commit *)
  transactional : bool;  (** run call batches as atomic transactions *)
  journal : string option;  (** write-ahead journal path *)
  fsync : bool;
      (** fsync the journal so commits survive power loss (not just a
          process crash): before each commit returns, or in [fds
          serve] once per served batch, before any reply that depends
          on it leaves — an ack always follows the fsync that covers
          its entry. Replication leaders force this on *)
  trace : string option;  (** Chrome-trace output file *)
  stats : bool;  (** print the metrics snapshot on exit *)
  rate_limit : float option;
      (** admission control: requests per second admitted per server
          connection (token bucket); [None] = unlimited *)
  rate_burst : float option;
      (** burst capacity of the request bucket; [None] = one second's
          worth ([rate_limit]) *)
  step_rate : float option;
      (** admission control: budget steps per second admitted per
          store, post-charged with each request's actual spend *)
}

(** Every knob at its neutral value: jobs/star-limit defaulted, budget
    unlimited, [`Auto] strategy, constraints checked, not
    transactional, no journal, no trace, no stats. *)
val default : t

(** [default] with the given fields overridden. *)
val make :
  ?jobs:int ->
  ?strategy:[ `Auto | `Naive | `Compiled ] ->
  ?star_limit:int ->
  ?steps:int ->
  ?states:int ->
  ?ms:int ->
  ?check_constraints:bool ->
  ?transactional:bool ->
  ?journal:string ->
  ?fsync:bool ->
  ?trace:string ->
  ?stats:bool ->
  ?rate_limit:float ->
  ?rate_burst:float ->
  ?step_rate:float ->
  unit ->
  t

(** [{default with jobs = Some n}] — the common checker-test shape. *)
val with_jobs : int -> t

(** The configured sweep width, resolved against
    {!Pool.default_jobs}. *)
val resolve_jobs : t -> int

(** A {e fresh} budget from the step/state/ms fields — time deadlines
    count from this call, so build one per request. [None] when every
    budget field is unset. *)
val budget : t -> Budget.t option
