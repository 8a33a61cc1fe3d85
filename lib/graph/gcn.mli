(** Graph Convolutional Network layers (Kipf & Welling) on the autodiff
    tape.

    The paper's differentiable cell spreader is "a GNN consisting of
    three Graph Convolutional Network layers with shared weights across
    all cells" (section IV-A): each layer computes
    [X' = act (D^-1/2 (A+I) D^-1/2 X W + b)], where the propagation
    operator is fixed (the netlist does not change during spreading) and
    only [W], [b] are trained. *)

val spmm : Csr.t -> Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t
(** Differentiable sparse-dense product with a constant sparse matrix:
    the backward pass multiplies by the transpose.  The transpose is
    computed once per partial application [spmm adj], on its first
    backward — a {!layer} builds it once for all its forwards. *)

type t

val layer :
  Dco3d_tensor.Rng.t ->
  adj:Csr.t ->
  in_dim:int ->
  out_dim:int ->
  ?act:(Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t) ->
  unit ->
  t
(** One GCN layer over a pre-normalized propagation matrix [adj]
    (see {!Csr.symmetric_normalize}).  Default activation: identity. *)

val forward : t -> Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t
val params : t -> Dco3d_autodiff.Value.t list

val stack :
  Dco3d_tensor.Rng.t ->
  adj:Csr.t ->
  dims:int list ->
  ?hidden_act:(Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t) ->
  unit ->
  t list
(** [stack rng ~adj ~dims:[f0; f1; ...; fk] ()] builds [k] layers
    [f0 -> f1 -> ... -> fk]; all but the last use [hidden_act]
    (default {!Dco3d_autodiff.Value.relu}), the last is linear. *)

val forward_stack : t list -> Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t
val stack_params : t list -> Dco3d_autodiff.Value.t list
