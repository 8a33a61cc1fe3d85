module V = Dco3d_autodiff.Value

(* [spmm adj] computes the transpose at most once, on the first
   backward through it, however often the partial application runs. *)
let spmm adj =
  let adj_t = lazy (Csr.transpose adj) in
  fun x ->
    let y = Csr.spmm adj (V.data x) in
    V.custom ~data:y ~parents:[ x ]
      ~backward:(fun g -> [ Some (Csr.spmm (Lazy.force adj_t) g) ])

type t = {
  prop : V.t -> V.t;  (** [spmm adj], transpose shared across calls *)
  lin : Dco3d_nn.Layer.t;
  act : V.t -> V.t;
}

let layer rng ~adj ~in_dim ~out_dim ?(act = Fun.id) () =
  { prop = spmm adj; lin = Dco3d_nn.Layer.linear rng ~in_dim ~out_dim (); act }

let forward l x = l.act (l.lin.Dco3d_nn.Layer.forward (l.prop x))
let params l = l.lin.Dco3d_nn.Layer.params

let stack rng ~adj ~dims ?(hidden_act = V.relu) () =
  let rec build = function
    | [] | [ _ ] -> []
    | [ in_dim; out_dim ] -> [ layer rng ~adj ~in_dim ~out_dim () ]
    | in_dim :: (out_dim :: _ as rest) ->
        layer rng ~adj ~in_dim ~out_dim ~act:hidden_act () :: build rest
  in
  build dims

let forward_stack layers x = List.fold_left (fun acc l -> forward l acc) x layers
let stack_params layers = List.concat_map params layers
