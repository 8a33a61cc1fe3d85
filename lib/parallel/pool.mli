(** Shared-memory data parallelism on OCaml 5 domains.

    Every hot kernel in the reproduction (tensor contractions,
    convolutions, RUDY accumulation, dataset construction) funnels its
    loops through this module.  A single lazily-created pool of
    persistent worker domains serves the whole process.  Workers poll a
    published region descriptor — an atomic chunk counter with
    completion and failure cells — spinning briefly before blocking, so
    dispatching a region costs two atomic writes on the caller and no
    per-chunk closure allocations (the v1 queue-of-closures design paid
    a lock/enqueue/wakeup round trip per helper per region).

    {b Sizing.}  The requested job count comes from the [DCO3D_JOBS]
    environment variable (default [Domain.recommended_domain_count ()])
    or {!set_jobs}.  The pool {e clamps} the domains it actually runs to
    the hardware ([Domain.recommended_domain_count ()]): requesting 8
    jobs on a 1-core container runs sequentially instead of timeslicing
    one core between competing domains — the failure mode behind PR 1's
    0.3x "speedups".  [DCO3D_JOBS=1] selects an exact in-caller
    sequential execution with no pool at all.

    {b One level of parallelism.}  A region opened by a domain that is
    already executing region chunks — a worker, or the caller inside its
    own region — runs inline.  So [Dataset.build] parallelizes across
    samples while every kernel inside a sample runs sequentially; a
    standalone kernel call parallelizes internally.  Never both.

    {b Determinism contract.}  Results never depend on the job count:

    - loop bodies handed to {!parallel_for} / {!map_array} must write
      disjoint locations per index, so any schedule commutes;
    - {!parallel_for_reduce} evaluates one partial result per chunk and
      combines the partials {e in ascending chunk order} on the calling
      domain, and the chunk decomposition depends only on the range (and
      the optional [chunk] argument), never on the number of workers.

    Under that contract, [DCO3D_JOBS=1] and [DCO3D_JOBS=64] produce
    bit-identical floating-point results — the property the
    [make bench-deterministic] harness enforces.

    {b Failure.}  The first exception a chunk raises aborts the region:
    unclaimed chunks are skipped and the exception is re-raised (with
    its backtrace) on the calling domain.  Worker domains never swallow
    exceptions and never die. *)

val jobs : unit -> int
(** Requested job count (from [DCO3D_JOBS] or {!set_jobs}).  This is
    the caller's intent; see {!effective_jobs} for what will run.

    @raise Invalid_argument if [DCO3D_JOBS] is set but is not a
    positive integer. *)

val effective_jobs : unit -> int
(** Domains that will actually compute a parallel region:
    [min (jobs ()) (Domain.recommended_domain_count ())], unless the
    clamp was bypassed with [set_jobs ~exact:true].  [1] means regions
    run inline in the caller. *)

val set_jobs : ?exact:bool -> int -> unit
(** [set_jobs n] reconfigures the runtime to [n] requested jobs,
    shutting down any existing pool first.  Used by the bench harness to
    time the same kernel sequentially and in parallel within one
    process.  [~exact:true] disables the hardware clamp so that [n]
    domains really run — tests use it to exercise true cross-domain
    schedules even on single-core CI hosts.
    @raise Invalid_argument if [n < 1]. *)

val parallel_for : ?chunk:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for lo hi f] runs [f i] for every [lo <= i < hi].  Indices
    are distributed in contiguous chunks of [chunk] (default: the range
    is cut into at most 256 chunks).  [f] must only write locations that
    no other index writes. *)

val for_chunks : ?chunk:int -> int -> int -> (int -> int -> unit) -> unit
(** [for_chunks lo hi f] is the chunk-granular primitive underneath
    {!parallel_for}: [f clo chi] is called once per chunk with
    [lo <= clo < chi <= hi], the chunks partitioning [\[lo, hi)] in
    contiguous ascending sub-ranges.  Useful when per-chunk setup (a
    scratch buffer, a cache tile) is worth amortizing. *)

val parallel_for_reduce :
  ?chunk:int ->
  init:'acc ->
  combine:('acc -> 'a -> 'acc) ->
  int ->
  int ->
  (int -> int -> 'a) ->
  'acc
(** [parallel_for_reduce ~init ~combine lo hi body] evaluates
    [body clo chi] on every chunk of [\[lo, hi)] and folds the partial
    results as [combine (... (combine init r0) ...) r_last] in ascending
    chunk order on the calling domain.  [combine] may mutate and return
    its accumulator.  The chunk decomposition is a function of the range
    and [chunk] only, so the float reduction tree — hence the result
    bits — is independent of the job count.  Returns [init] on an empty
    range. *)

val tabulate : ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [tabulate n f] is [Array.init n f] with the calls distributed over
    the pool; element [i] of the result is [f i].  [f] must be safe to
    call from any domain in any order. *)

val map_array : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f a] is [Array.map f a] over the pool. *)
