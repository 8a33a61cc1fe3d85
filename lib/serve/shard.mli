(** One shard of the balanced serving fleet: a detached {!Server}
    driven entirely by connections handed over the balancer's
    Unix-domain control channel via [SCM_RIGHTS] ({!Fdpass}).

    The [dco3d serve --shard-of CTL] CLI is a thin wrapper around
    {!run}. *)

type outcome =
  | Drained  (** the balancer asked this shard to drain (rolling swap) *)
  | Balancer_gone  (** control channel hit EOF/error — balancer died *)

val run : ctl_path:string -> Server.config -> Dco3d_core.Predictor.t -> outcome
(** Connect to the balancer's control socket, register with a
    [shard_hello] (pid, shard id, model fingerprint),
    then serve adopted connections until told to drain or the balancer
    disappears.  Returns after the server has fully drained (queued
    requests answered, hot set spilled).  The [Server.config.address]
    is never bound.
    @raise Unix.Unix_error if the control socket cannot be reached. *)
