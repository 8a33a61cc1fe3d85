module T = Dco3d_tensor.Tensor

type t = {
  n_rows : int;
  n_cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let create ~n_rows ~n_cols coo =
  List.iter
    (fun (r, c, _) ->
      if r < 0 || r >= n_rows || c < 0 || c >= n_cols then
        invalid_arg "Csr.create: index out of range")
    coo;
  let sorted =
    List.sort (fun (r1, c1, _) (r2, c2, _) -> compare (r1, c1) (r2, c2)) coo
  in
  (* merge duplicates *)
  let merged =
    List.fold_left
      (fun acc (r, c, v) ->
        match acc with
        | (r', c', v') :: rest when r = r' && c = c' -> (r, c, v +. v') :: rest
        | _ -> (r, c, v) :: acc)
      [] sorted
    |> List.rev
  in
  let nnz = List.length merged in
  let col_idx = Array.make nnz 0 in
  let values = Array.make nnz 0. in
  let row_ptr = Array.make (n_rows + 1) 0 in
  List.iteri
    (fun i (r, c, v) ->
      col_idx.(i) <- c;
      values.(i) <- v;
      row_ptr.(r + 1) <- row_ptr.(r + 1) + 1)
    merged;
  for r = 0 to n_rows - 1 do
    row_ptr.(r + 1) <- row_ptr.(r + 1) + row_ptr.(r)
  done;
  { n_rows; n_cols; row_ptr; col_idx; values }

let identity n =
  {
    n_rows = n;
    n_cols = n;
    row_ptr = Array.init (n + 1) Fun.id;
    col_idx = Array.init n Fun.id;
    values = Array.make n 1.;
  }

let nnz m = Array.length m.values

let get m i j =
  if i < 0 || i >= m.n_rows || j < 0 || j >= m.n_cols then
    invalid_arg "Csr.get: index out of range";
  (* binary search within the row (columns are sorted by construction) *)
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_idx.(mid) in
    if c = j then begin
      result := m.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let iter_row m i f =
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done

let iter m f =
  for i = 0 to m.n_rows - 1 do
    iter_row m i (fun j v -> f i j v)
  done

let transpose m =
  let nnz = Array.length m.values in
  let row_ptr = Array.make (m.n_cols + 1) 0 in
  Array.iter (fun c -> row_ptr.(c + 1) <- row_ptr.(c + 1) + 1) m.col_idx;
  for c = 0 to m.n_cols - 1 do
    row_ptr.(c + 1) <- row_ptr.(c + 1) + row_ptr.(c)
  done;
  let col_idx = Array.make nnz 0 in
  let values = Array.make nnz 0. in
  let cursor = Array.copy row_ptr in
  iter m (fun i j v ->
      let k = cursor.(j) in
      col_idx.(k) <- i;
      values.(k) <- v;
      cursor.(j) <- k + 1);
  { n_rows = m.n_cols; n_cols = m.n_rows; row_ptr; col_idx; values }

let matvec m x =
  if Array.length x <> m.n_cols then invalid_arg "Csr.matvec: length mismatch";
  let y = Array.make m.n_rows 0. in
  for i = 0 to m.n_rows - 1 do
    let acc = ref 0. in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
    done;
    y.(i) <- !acc
  done;
  y

let spmm m x =
  if T.rank x <> 2 || T.dim x 0 <> m.n_cols then
    invalid_arg "Csr.spmm: shape mismatch";
  let f = T.dim x 1 in
  let xd = x.T.data in
  let y = Array.make (m.n_rows * f) 0. in
  (* each output element is one chain over the row's k ascending *)
  for i = 0 to m.n_rows - 1 do
    let yrow = i * f in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let v = Array.unsafe_get m.values k in
      if v <> 0. then begin
        let xrow = Array.unsafe_get m.col_idx k * f in
        for c = 0 to f - 1 do
          Array.unsafe_set y (yrow + c)
            (Array.unsafe_get y (yrow + c)
            +. (v *. Array.unsafe_get xd (xrow + c)))
        done
      end
    done
  done;
  T.make [| m.n_rows; f |] y

let row_sums m =
  let s = Array.make m.n_rows 0. in
  iter m (fun i _ v -> s.(i) <- s.(i) +. v);
  s

let scale_rows m d =
  if Array.length d <> m.n_rows then invalid_arg "Csr.scale_rows: length mismatch";
  let values =
    Array.init (Array.length m.values) (fun k -> m.values.(k))
  in
  for i = 0 to m.n_rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      values.(k) <- values.(k) *. d.(i)
    done
  done;
  { m with values }

let scale_cols m d =
  if Array.length d <> m.n_cols then invalid_arg "Csr.scale_cols: length mismatch";
  let values =
    Array.init (Array.length m.values) (fun k ->
        m.values.(k) *. d.(m.col_idx.(k)))
  in
  { m with values }

let symmetric_normalize a =
  if a.n_rows <> a.n_cols then
    invalid_arg "Csr.symmetric_normalize: square matrix expected";
  let n = a.n_rows in
  (* A + I, rebuilt through the COO path to keep columns sorted. *)
  let coo = ref [] in
  iter a (fun i j v -> coo := (i, j, v) :: !coo);
  for i = 0 to n - 1 do
    coo := (i, i, 1.) :: !coo
  done;
  let a_hat = create ~n_rows:n ~n_cols:n !coo in
  let deg = row_sums a_hat in
  let d_inv_sqrt =
    Array.map (fun d -> if d > 0. then 1. /. sqrt d else 0.) deg
  in
  scale_cols (scale_rows a_hat d_inv_sqrt) d_inv_sqrt
