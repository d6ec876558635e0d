(** A fixed-size domain pool for the engine's one parallel section:
    per-view fold chains ({!run_chains}), in maintenance and in replay.

    The maintenance theorem behind the transaction path makes every
    persistent view's Δ-fold independent of every other view's: the
    folds share only read-only inputs (the recorded batch, chronicle
    history, relation states) and the global {!Stats} counters (which
    are atomic).  This module supplies the execution substrate that
    exploits the independence: a set of long-lived worker domains fed
    through a single work queue, each view's chain of folds one
    claimable task, with a graceful single-domain fallback.  Bulk
    evaluation (initial materialization, ad-hoc queries) is sequential
    and never reaches the pool.

    {2 Design}

    - A handle ({!t}) carries only the requested parallelism degree
      [jobs].  The worker domains themselves are process-global and
      shared by every handle: domains are a scarce resource (the OCaml
      runtime caps their number), so creating many databases must not
      create many domain sets.  Workers are spawned lazily on the first
      parallel submission and joined at process exit.
    - [jobs = 1] (the default everywhere) never touches a domain: tasks
      run inline on the caller, in submission order, so the sequential
      path is byte-identical to a build without this module.
    - A submission with [jobs = n] is served by the caller plus at most
      [n - 1] workers, even when more workers exist (other handles may
      have asked for more) — the degree is a property of the
      submission, not of the pool, so benchmarks sweeping domain counts
      measure what they claim to.
    - Chains are claimed from a shared atomic cursor (work queue
      semantics): a cheap chain finishing early frees its domain for the
      next one, so skew across views does not serialize the batch.

    {2 Discipline}

    {!run_chains} must be called from the domain that owns the handle
    (in this engine: the domain running the transaction path), and
    parallel sections must not nest.  Tasks must not raise across the
    pool — exceptions are caught per task and reported to the
    submitter, who decides (the transaction path rolls every view back
    and re-raises the first failure, preserving the txn protocol). *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] — a handle requesting [jobs]-way parallelism.
    [jobs = 1] (default) is the sequential fallback; [jobs = 0] means
    {!Domain.recommended_domain_count}[ ()].  Raises
    [Invalid_argument] on negative [jobs] or a request beyond the
    runtime's domain budget. *)

val jobs : t -> int
(** The effective parallelism degree (≥ 1). *)

val run_chains : t -> (unit -> unit) array array -> exn option array
(** Dependency-aware submission for workloads whose tasks form
    {e disjoint linear chains}: element [i] is a sequence of links that
    must run in order (each link depends on its predecessor), while
    distinct chains are independent and are scheduled across domains,
    the caller working alongside at most [jobs t - 1] worker domains.
    Returns one outcome per chain: the first link that raises aborts
    the remainder of {e that chain only} (its successors depend on it)
    and becomes the chain's exception; other chains still run to
    completion.  With [jobs t = 1] or fewer than two chains, the chains
    run inline in array order — byte-identical to a sequential nested
    loop, no domain involved. *)

val worker_count : unit -> int
(** Live worker domains (excluding the caller); observability only. *)

val shutdown : unit -> unit
(** Join all worker domains.  Subsequent submissions respawn lazily.
    Called automatically at process exit. *)
