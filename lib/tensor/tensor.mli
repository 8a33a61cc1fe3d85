(** Dense row-major float tensors.

    This module is the numerical substrate for the whole reproduction:
    congestion maps are rank-2 tensors [[h; w]], per-die feature stacks
    are rank-3 tensors [[c; h; w]] (channels first, matching the paper's
    7-channel inputs), convolution weights are rank-4 [[co; ci; kh; kw]],
    and GNN activations are rank-2 [[n; f]].  All neural-network kernels
    (convolution, transposed convolution, pooling, nearest-neighbour
    resize) live here so that {!module:Dco3d_autodiff} can wrap each
    forward kernel with its hand-written adjoint. *)

type t = private { shape : int array; data : float array }
(** A tensor.  [data] is row-major; the type is private so that all
    construction goes through the checked builders below, but kernels
    may still read fields directly. *)

(** {1 Construction} *)

val make : int array -> float array -> t
(** [make shape data] checks that [data] has exactly the implied number
    of elements.  [data] is owned by the result (not copied): the caller
    must not mutate it afterwards except through the tensor.  [shape] is
    copied defensively. *)

val zeros : int array -> t
val ones : int array -> t
val full : int array -> float -> t

val init : int array -> (int array -> float) -> t
(** [init shape f] tabulates [f] over multi-indices in row-major order. *)

val scalar : float -> t
(** Rank-0 tensor. *)

val of_array1 : float array -> t
(** Rank-1 view of a fresh copy of the array. *)

val of_array2 : float array array -> t
(** Rank-2 tensor from rows; all rows must share a length. *)

val copy : t -> t

val rand_uniform : Rng.t -> ?lo:float -> ?hi:float -> int array -> t
val randn : Rng.t -> ?mu:float -> ?sigma:float -> int array -> t

val kaiming : Rng.t -> fan_in:int -> int array -> t
(** He-normal initialization: stddev [sqrt (2 / fan_in)]. *)

(** {1 Shape accessors} *)

val shape : t -> int array
val numel : t -> int
val rank : t -> int
val dim : t -> int -> int
val same_shape : t -> t -> bool
val reshape : t -> int array -> t
(** [reshape t shape] returns a view with a new shape; the element count
    must be preserved.

    {b Warning: the result aliases [t]'s data array} — writing through
    either tensor is visible in the other.  This is intentional (the
    autodiff layer reshapes large activations without copying), but it
    means [reshape] does {e not} confer ownership the way {!make} /
    {!copy} results do.  Use {!reshape_copy} when an independently owned
    tensor is required.  The [shape] array itself is copied
    defensively. *)

val reshape_copy : t -> int array -> t
(** Like {!reshape} but the result owns a fresh copy of the data: later
    writes to [t] never leak into the result, and vice versa. *)

(** {1 Element access} *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit

val get2 : t -> int -> int -> float
(** Rank-2 convenience accessor. *)

val set2 : t -> int -> int -> float -> unit

val get3 : t -> int -> int -> int -> float
(** Rank-3 convenience accessor. *)

val set3 : t -> int -> int -> int -> float -> unit

(** {1 Elementwise operations} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val iteri_flat : (int -> float -> unit) -> t -> unit

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val relu : t -> t

val leaky_relu : float -> t -> t
(** [leaky_relu slope x] is [x] where positive, else [slope *. x]. *)

val relu_backward : input:t -> t -> t
(** [relu_backward ~input g] passes [g] where [input > 0.], else 0. *)

val leaky_relu_backward : float -> input:t -> t -> t
(** [leaky_relu_backward slope ~input g] is [g] where [input > 0.], else
    [slope *. g]. *)

val sigmoid : t -> t
val tanh_ : t -> t
val exp_ : t -> t
val log_ : t -> t
val sqrt_ : t -> t
val sqr : t -> t
val clip : lo:float -> hi:float -> t -> t

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y] performs [y <- alpha*x + y] in place. *)

val fill : t -> float -> unit

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_elt : t -> float
val min_elt : t -> float
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val dot : t -> t -> float
val frobenius : t -> float
(** L2 norm of all elements. *)

(** {1 Linear algebra (rank 2)} *)

val matmul : t -> t -> t
(** [[m; k]] x [[k; n]] -> [[m; n]]. *)

val transpose2 : t -> t

val matvec : t -> t -> t
(** [[m; k]] x [[k]] -> [[m]]. *)

(** {1 Pooling and resampling (rank 3 activations [[c; h; w]])} *)

val maxpool2 : t -> t * int array
(** 2x2, stride-2 max pooling of a rank-3 tensor or a rank-4 batch.
    Also returns the flat argmax index into the input for each output
    element (for the backward pass).  Requires even spatial
    dimensions. *)

val maxpool2_backward : input_shape:int array -> int array -> t -> t
(** [maxpool2_backward ~input_shape argmax gout] scatters [gout] back
    through the recorded argmax indices. *)

val avgpool2 : t -> t
val upsample_nearest2 : t -> t
(** 2x nearest-neighbour upsampling of a rank-3 tensor. *)

(** {1 Batched kernels (rank 4 activations [[n; c; h; w]])}

    The kernels of the batch-native autodiff tape and of inference.  A
    rank-3 activation is accepted as a batch of one, and every result
    keeps its input's rank.  Each op splits its batch into contiguous
    sample chunks, one per domain, in a single parallel region; the
    kernels inside a chunk run inline, each sample in place at its
    offset into the batch.  Every batched kernel is bit-identical to
    [n] independent per-sample calls at every [DCO3D_JOBS]: outputs and
    input gradients are those calls, and the weight and bias gradients
    are per-sample chains summed in ascending sample order. *)

val stack : t array -> t
(** [stack [|t0; ...; t_{n-1}|]] concatenates [n] same-shaped tensors
    into a tensor of shape [n :: shape t0] (fresh storage).
    @raise Invalid_argument on an empty array or a shape mismatch. *)

val unstack : t -> t array
(** Inverse of {!stack}: split the leading axis into [n] independently
    owned tensors. *)

val cat_batch : t list -> t
(** Concatenate activations along the batch axis into a rank-4 tensor;
    a rank-3 part counts as one sample.
    @raise Invalid_argument on an empty list or differing sample
    shapes. *)

val slice_batch : t -> int -> int -> t
(** [slice_batch x lo n] copies samples [lo..lo+n-1] of a rank-4
    tensor. *)

val swap_halves : t -> t
(** Exchange the first and second halves of the leading axis — the
    two dies of a stacked Siamese batch.  Its own inverse. *)

val conv2d_batch :
  ?stride:int -> ?pad:int -> t -> weight:t -> bias:t option -> t
(** 2-D convolution (cross-correlation) over a batch: [x : [n; ci; h;
    w]] (or one sample [[ci; h; w]]), [weight : [co; ci; kh; kw]],
    [bias : [co]] option -> [[n; co; oh; ow]] with [oh = (h + 2*pad -
    kh) / stride + 1].  Each output element sums its terms in (c, ky,
    kx) order from [+0.], then adds the bias.
    @raise Invalid_argument on a channel mismatch, an empty output,
    [stride < 1] or [pad < 0]. *)

val conv2d_transpose_batch :
  ?stride:int -> ?pad:int -> t -> weight:t -> bias:t option -> t
(** Transposed convolution (a.k.a. deconvolution), used by the UNet
    decoder: [x : [n; ci; h; w]], [weight : [ci; co; kh; kw]]; the
    output has spatial size [(h-1)*stride - 2*pad + kh].  Each output
    element sums its terms c, then iy, then ix ascending. *)

val conv2d_backward_input_batch :
  ?stride:int -> ?pad:int -> input_shape:int array -> weight:t -> t -> t
(** Adjoint of {!conv2d_batch} with respect to its input: maps a batch
    of output gradients back to input gradients of shape
    [input_shape], each element summing (o, ky, kx) ascending. *)

val conv2d_backward_weight_batch :
  ?stride:int -> ?pad:int -> input:t -> weight_shape:int array -> t -> t
(** Adjoint of {!conv2d_batch} with respect to the weight: each
    sample's gradient sums its output pixels in (oy, ox) order, and the
    samples are summed in ascending order.
    @raise Invalid_argument on an empty batch. *)

val channel_sums : t -> t
(** Per-channel sums of a batch — the bias gradient of a convolution:
    each sample's channel is summed in pixel order, then the samples
    in ascending order. *)

val maxpool2_batch : t -> t
(** 2x2, stride-2 max pooling over a rank-4 batch, without the argmax
    ({!maxpool2} also takes rank-4 input and returns it). *)

val concat_channels_batch : t list -> t
(** Concatenate rank-4 tensors along the channel axis; batch and
    spatial dimensions must agree. *)

(** {1 Map utilities (rank 2 and 3)} *)

val resize_nearest : t -> int -> int -> t
(** [resize_nearest m h w] resizes a rank-2 map with nearest-neighbour
    interpolation, preserving pixel magnitudes (paper, section
    III-B3). *)

val concat_channels : t list -> t
(** Stack rank-3 tensors along the channel axis (spatial dims must
    agree); rank-2 inputs are treated as single channels.  A list of
    rank-4 batches goes to {!concat_channels_batch}. *)

val slice_channels : t -> int -> int -> t
(** [slice_channels x lo n] extracts channels [lo..lo+n-1] as a copy
    (of every sample, for a rank-4 batch). *)

val channel : t -> int -> t
(** [channel x c] extracts channel [c] of a rank-3 tensor as a rank-2
    map (copy). *)

val pad2d : t -> int -> t
(** Zero-pad the two trailing spatial dimensions by [p] on each side. *)

val rot90 : t -> t
(** Rotate a rank-2 map counter-clockwise by 90 degrees; for rank-3,
    rotates every channel. *)

val flip_h : t -> t
(** Mirror the last (width) axis. *)

val flip_v : t -> t
(** Mirror the height axis. *)

(** {1 Comparison and printing} *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
