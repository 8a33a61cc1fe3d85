(** Persistent spill for evicted result-cache entries.

    When a shard's LRU evicts an entry, the server writes it here; when
    a (possibly restarted) shard misses in memory, it read-through
    checks the spill before running the forward pass — so restarts and
    rolling swaps keep the hot set warm.  Entries use the same
    magic+digest framing as the model files ("DCO3D-SPILL-V1" +
    MD5(body)), store their own cache key for verification, and are
    written via temp-file + rename.  Cache keys embed the model
    fingerprint, so a stale spill dir can never serve maps from a
    different model.

    All operations are best-effort and never raise on IO failure:
    [put] reports success as a bool, [find] deletes any corrupt file it
    encounters and returns [None]. *)

type t

val create : dir:string -> t
(** Creates [dir] (and parents) if missing.
    @raise Unix.Unix_error if the directory cannot be created. *)

val dir : t -> string

val put : t -> string -> Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t -> bool
(** Persist one entry; [false] if the write failed (disk full, …). *)

val find : t -> string -> (Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) option
(** Load an entry.  Digest and stored-key verified; a file that fails
    either check is deleted and reported as a miss. *)

val count : t -> int
(** Number of [.spill] entries currently on disk (for stats). *)
