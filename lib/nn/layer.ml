module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

type act_kind = Relu | Leaky of float | Sigmoid | Tanh | Maxpool2 | Opaque

type spec =
  | Conv of { stride : int; pad : int; weight : V.t; bias : V.t option }
  | Conv_transpose of {
      stride : int;
      pad : int;
      weight : V.t;
      bias : V.t option;
    }
  | Linear of { weight : V.t; bias : V.t option }
  | Act of act_kind
  | Seq of spec list

type t = { params : V.t list; forward : V.t -> V.t; spec : spec }

let conv2d rng ?(stride = 1) ?(pad = 0) ?(bias = true) ~in_channels
    ~out_channels ~ksize () =
  let fan_in = in_channels * ksize * ksize in
  let w = V.param (T.kaiming rng ~fan_in [| out_channels; in_channels; ksize; ksize |]) in
  let b = if bias then Some (V.param (T.zeros [| out_channels |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward = (fun x -> V.conv2d ~stride ~pad x ~weight:w ~bias:b);
    spec = Conv { stride; pad; weight = w; bias = b };
  }

let conv2d_transpose rng ?(stride = 1) ?(pad = 0) ?(bias = true) ~in_channels
    ~out_channels ~ksize () =
  let fan_in = in_channels * ksize * ksize in
  let w = V.param (T.kaiming rng ~fan_in [| in_channels; out_channels; ksize; ksize |]) in
  let b = if bias then Some (V.param (T.zeros [| out_channels |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward = (fun x -> V.conv2d_transpose ~stride ~pad x ~weight:w ~bias:b);
    spec = Conv_transpose { stride; pad; weight = w; bias = b };
  }

let pointwise rng ~in_channels ~out_channels () =
  conv2d rng ~in_channels ~out_channels ~ksize:1 ()

let linear rng ?(bias = true) ~in_dim ~out_dim () =
  let w = V.param (T.kaiming rng ~fan_in:in_dim [| in_dim; out_dim |]) in
  let b = if bias then Some (V.param (T.zeros [| out_dim |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward =
      (fun x ->
        let y = V.matmul x w in
        match b with Some b -> V.add_bias_rows y b | None -> y);
    spec = Linear { weight = w; bias = b };
  }

let activation ?(kind = Opaque) f = { params = []; forward = f; spec = Act kind }
let relu = activation ~kind:Relu V.relu
let leaky_relu slope = activation ~kind:(Leaky slope) (V.leaky_relu slope)
let sigmoid = activation ~kind:Sigmoid V.sigmoid
let tanh_ = activation ~kind:Tanh V.tanh_
let maxpool2 = activation ~kind:Maxpool2 V.maxpool2

let seq layers =
  {
    params = List.concat_map (fun l -> l.params) layers;
    forward = (fun x -> List.fold_left (fun acc l -> l.forward acc) x layers);
    spec = Seq (List.map (fun l -> l.spec) layers);
  }

let num_params l = List.fold_left (fun acc p -> acc + V.numel p) 0 l.params

let state l = List.map (fun p -> T.copy (V.data p)) l.params

let load_state l snapshot =
  if List.length snapshot <> List.length l.params then
    invalid_arg "Layer.load_state: parameter count mismatch";
  List.iter2
    (fun p s ->
      let d = V.data p in
      if not (T.same_shape d s) then
        invalid_arg "Layer.load_state: shape mismatch";
      for i = 0 to T.numel d - 1 do
        T.set_flat d i (T.get_flat s i)
      done)
    l.params snapshot
