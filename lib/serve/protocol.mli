(** Wire protocol of the [dco3d serve] daemon.

    Every message travels as one length-prefixed binary frame, mirroring
    the framing discipline of the on-disk model files (magic + version +
    digest + Marshal payload):

    {v
    "DCO3D-SERVE-V1" | u8 version | u32_be payload length
                     | 16-byte MD5(payload) | payload
    v}

    The digest makes truncated or corrupted frames fail loudly at the
    receiver instead of Marshal-decoding garbage; for [Predict] requests
    the {e content} digest ({!predict_key}) doubles as the daemon's
    result-cache key.  Frames are capped at {!max_frame_bytes}. *)

type predict_payload = {
  f_bottom : Dco3d_tensor.Tensor.t;  (** raw [[7; ny; nx]] stack, bottom die *)
  f_top : Dco3d_tensor.Tensor.t;
}

type flow_variant = Pin3d | Pin3d_cong

type flow_spec = {
  fl_design : string;  (** benchmark name, e.g. "DMA" *)
  fl_scale : float;
  fl_seed : int;
  fl_gcell : int;
  fl_variant : flow_variant;
}

type route_want =
  | Want_any  (** any live shard *)
  | Want_fingerprint of string  (** a shard with exactly this model fingerprint *)

(** The third async request class: corpus PPA cells and corpus dataset
    builds, deduped in-flight by {!corpus_key} and cached on disk by
    [(netlist digest, flow config, seed)]. *)
type corpus_kind =
  | Corpus_ppa  (** run the full flow, report the PPA row *)
  | Corpus_dataset of int
      (** build an [n_samples] congestion dataset on the corpus
          design (warms the fleet's shared route cache), report its
          content digest *)

type corpus_req = {
  cr_spec : Dco3d_corpus.Corpus.spec;
  cr_config : Dco3d_corpus.Corpus.flow_config;
  cr_kind : corpus_kind;
}

type request =
  | Ping
  | Predict of predict_payload
  | Flow_submit of flow_spec
  | Flow_poll of int
  | Stats
  | Hello of route_want
      (** optional first request on a balanced connection: pins the
          route before the fd is handed to a shard.  New constructors
          are appended so Marshal tags of older ones never shift. *)
  | Corpus_submit of corpus_req
  | Corpus_poll of int

type envelope = {
  req : request;
  timeout_ms : float option;
      (** per-request deadline, measured by the server from arrival;
          a request still queued past it is answered [Timed_out] *)
}

type flow_summary = {
  fs_name : string;
  fs_overflow : int;
  fs_wirelength_um : float;
  fs_wns_ps : float;
  fs_tns_ps : float;
  fs_power_mw : float;
}

type job_status =
  | Job_queued
  | Job_running
  | Job_done of flow_summary
  | Job_failed of string

type corpus_result =
  | Corpus_row of Dco3d_corpus.Corpus.row
  | Corpus_dataset_built of {
      cd_design : string;
      cd_samples : int;
      cd_digest : string;  (** {!Dco3d_core.Dataset.digest} *)
    }

type corpus_status =
  | Corpus_queued
  | Corpus_running
  | Corpus_done of corpus_result
  | Corpus_failed of string

type reply =
  | Pong
  | Predicted of {
      c_bottom : Dco3d_tensor.Tensor.t;
      c_top : Dco3d_tensor.Tensor.t;
      cache_hit : bool;
    }
  | Accepted of int  (** flow job id *)
  | Status of job_status
  | Stats_reply of (string * float) list
  | Overloaded of { queue_len : int; capacity : int }
      (** backpressure: the predict queue is past its high-water mark *)
  | Timed_out
  | Server_error of string
  | Hello_reply of { h_fingerprint : string; h_shard : int }
      (** answer to [Hello]: which shard the connection landed on *)
  | Corpus_status of corpus_status
      (** answer to [Corpus_submit] is [Accepted id]; this answers
          [Corpus_poll] *)

exception Protocol_error of string
(** Bad magic, unsupported version, oversized frame, or digest
    mismatch. *)

val version : int
(** The frame header's version byte.  A frame carrying any other value
    is refused with [Protocol_error "unsupported protocol version v"]
    before its payload is decoded, so peers built against a different
    payload layout fail cleanly instead of decoding ill-typed values. *)

val precision : string
(** ["f32"]: the arithmetic every shard serves in, reported as the
    third component of {!Client.hello}. *)

val max_frame_bytes : int

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
val read_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Short-transfer/EINTR-safe loops, shared with the control channel.
    [read_all] raises [End_of_file] if the peer closes mid-read. *)

val send_frame : Unix.file_descr -> string -> unit
val recv_frame : Unix.file_descr -> string
(** Raw framed payloads.  The balancer uses [recv_frame] to pull one
    request off a fresh connection without consuming anything else,
    then forwards the exact bytes to the chosen shard. *)

val send_request : Unix.file_descr -> envelope -> unit
val recv_request : Unix.file_descr -> envelope
(** @raise End_of_file on a clean peer disconnect before any byte of a
    frame; {!Protocol_error} on a malformed frame. *)

val send_reply : Unix.file_descr -> reply -> unit
val recv_reply : Unix.file_descr -> reply

val predict_key : predict_payload -> string
(** Hex digest of the feature-map content alone (no envelope fields),
    combined by the server with the model fingerprint to key the result
    cache. *)

val corpus_key : corpus_req -> string
(** Hex digest of a corpus request's full content — the server's
    in-flight dedup identity: concurrent submits of the same request
    share one job id. *)

val decode_request : string -> envelope
(** Decode a raw frame payload (from {!recv_frame}) into an envelope.
    @raise Protocol_error if the payload does not unmarshal. *)

(** Announcement a shard sends over the balancer's control channel when
    it registers. *)
type shard_hello = {
  sh_pid : int;
  sh_shard : int;
  sh_fingerprint : string;
}

val encode_shard_hello : shard_hello -> string
val decode_shard_hello : string -> shard_hello
