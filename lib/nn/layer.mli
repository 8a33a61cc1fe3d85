(** Neural-network layers as parameterized differentiable functions.

    A layer couples a list of trainable {!Dco3d_autodiff.Value.t}
    parameters with a forward function.  Layers compose with {!seq};
    weight sharing (the Siamese property of the paper's predictor) is
    obtained simply by applying the same layer value to several
    inputs. *)

type t = {
  params : Dco3d_autodiff.Value.t list;  (** trainable leaves *)
  forward : Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t;
      (** one sample [[c; h; w]] or a batch [[n; c; h; w]] ([[n; f]]
          rows for {!linear}); inference runs it under
          {!Dco3d_autodiff.Value.no_grad} *)
}

val conv2d :
  Dco3d_tensor.Rng.t ->
  ?stride:int ->
  ?pad:int ->
  ?bias:bool ->
  in_channels:int ->
  out_channels:int ->
  ksize:int ->
  unit ->
  t
(** 2-D convolution with He-normal weight init. *)

val conv2d_transpose :
  Dco3d_tensor.Rng.t ->
  ?stride:int ->
  ?pad:int ->
  ?bias:bool ->
  in_channels:int ->
  out_channels:int ->
  ksize:int ->
  unit ->
  t
(** Transposed convolution (UNet upsampling path). *)

val pointwise :
  Dco3d_tensor.Rng.t -> in_channels:int -> out_channels:int -> unit -> t
(** 1x1 convolution — the paper's inter-die communication layer. *)

val linear :
  Dco3d_tensor.Rng.t -> ?bias:bool -> in_dim:int -> out_dim:int -> unit -> t
(** Dense layer on rank-2 inputs [[n; in_dim]] (row-wise). *)

val activation : (Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t) -> t
(** Parameter-free layer from any differentiable function. *)

val relu : t
val leaky_relu : float -> t
val sigmoid : t
val tanh_ : t
val maxpool2 : t

val seq : t list -> t
(** Left-to-right composition; parameters concatenate in order. *)

val num_params : t -> int
(** Total scalar parameter count. *)

(** {1 Persistence} *)

val state : t -> Dco3d_tensor.Tensor.t list
(** Snapshot of parameter tensors (copies, ordered as [params]). *)

val load_state : t -> Dco3d_tensor.Tensor.t list -> unit
(** Restore a snapshot in place.
    @raise Invalid_argument on arity or shape mismatch. *)
