(* Benchmark regression gate (`make bench-check`).

   Compares a freshly generated BENCH_kernels.json against the baseline
   committed at HEAD (via `git show HEAD:BENCH_kernels.json`) and fails
   the build when the kernel engine regresses:

     1. digest drift   - a kernel's content digest differs from the
                         committed one.  The engine contract is strict
                         bit-identity across engine rewrites and
                         DCO3D_JOBS values, so this is never noise;
                         it means the numerics changed.
     2. speedup < 1.0  - the parallel leg is slower than the sequential
                         leg, modulo a small timing-noise tolerance
                         (DCO3D_BENCH_TOL, default 0.10: on hosts where
                         the jobs clamp makes both legs run the same
                         code, the ratio is pure noise around 1.0).
     3. par_ms regression - a kernel's parallel time exceeds the
                         committed baseline by more than
                         DCO3D_BENCH_REGRESS (default 0.15 = 15 %).
                         Catches "the new engine is slower than the one
                         we shipped" even when speedup still looks fine.
     4. per-op floors  - some rows promise more than "parallel is not
                         slower": serve_fleet's is 2-shard over
                         1-shard wall time, with a >= 1.5x scaling
                         contract on multi-core hosts (the fresh
                         file's "cores" header says what the bench
                         machine had);
                         route_warm's is cold re-route over warm-start
                         time on a perturbed placement, with a >= 2x
                         incremental-routing contract.
                         Floors are gated with the same noise
                         tolerance: speedup < floor * (1 - tol) fails.

   Usage: dune exec bench/bench_check.exe [fresh.json [baseline.json]]
   With no arguments the fresh file is ./BENCH_kernels.json and the
   baseline is read from git. *)

let tol =
  match Sys.getenv_opt "DCO3D_BENCH_TOL" with
  | Some v -> float_of_string v
  | None -> 0.10

let regress =
  match Sys.getenv_opt "DCO3D_BENCH_REGRESS" with
  | Some v -> float_of_string v
  | None -> 0.15

type row = {
  op : string;
  seq_ms : float;
  par_ms : float;
  speedup : float;
  digest : string;
}

(* ------------------------------------------------------------------ *)
(* Minimal parser for the flat one-object-per-line format bench/main.ml
   emits.  Not a general JSON parser: it only has to read files this
   repository writes, and must keep working on older baselines that
   lack newer fields.                                                  *)
(* ------------------------------------------------------------------ *)

let find_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and llen = String.length line in
  let rec search i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then Some (i + plen)
    else search (i + 1)
  in
  match search 0 with
  | None -> None
  | Some start ->
      let start = ref start in
      while !start < llen && line.[!start] = ' ' do
        incr start
      done;
      let stop = ref !start in
      (if !stop < llen && line.[!stop] = '"' then begin
         (* string value: scan to the closing quote *)
         incr start;
         incr stop;
         while !stop < llen && line.[!stop] <> '"' do
           incr stop
         done
       end
       else
         while
           !stop < llen && (match line.[!stop] with ',' | '}' -> false | _ -> true)
         do
           incr stop
         done);
      Some (String.trim (String.sub line !start (!stop - !start)))

let row_of_line line =
  match find_field line "op" with
  | None -> None
  | Some op ->
      let num key =
        match find_field line key with
        | Some v -> float_of_string v
        | None -> nan
      in
      Some
        {
          op;
          seq_ms = num "seq_ms";
          par_ms = num "par_ms";
          speedup = num "speedup";
          digest = Option.value ~default:"" (find_field line "digest");
        }

let rows_of_string text =
  String.split_on_char '\n' text |> List.filter_map row_of_line

(* header field of the combined file: core count of the machine the
   fresh run executed on (absent in older baselines -> assume 1) *)
let cores_of_string text =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         match acc with
         | Some _ -> acc
         | None -> (
             match find_field line "cores" with
             | Some v -> int_of_string_opt v
             | None -> None))
       None
  |> Option.value ~default:1

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_git_baseline () =
  let ic = Unix.open_process_in "git show HEAD:BENCH_kernels.json 2>/dev/null" in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (Buffer.contents buf)
  | _ -> None

(* ------------------------------------------------------------------ *)

let () =
  let fresh_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_kernels.json"
  in
  let fresh_text = read_file fresh_path in
  let fresh = rows_of_string fresh_text in
  let cores = cores_of_string fresh_text in
  if fresh = [] then begin
    Printf.eprintf "bench-check: no kernel rows in %s\n" fresh_path;
    exit 2
  end;
  let baseline =
    if Array.length Sys.argv > 2 then
      rows_of_string (read_file Sys.argv.(2))
    else
      match read_git_baseline () with
      | Some text -> rows_of_string text
      | None ->
          print_endline
            "bench-check: no committed BENCH_kernels.json at HEAD; checking \
             speedups only";
          []
  in
  let base_of op = List.find_opt (fun r -> r.op = op) baseline in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf ("  FAIL " ^^ fmt ^^ "\n")
  in
  Printf.printf
    "bench-check: %s vs committed baseline (tol %.0f%%, regression cap %.0f%%)\n"
    fresh_path (100. *. tol) (100. *. regress);
  Printf.printf "  %-24s %9s %9s %8s  %s\n" "op" "par ms" "base ms" "speedup"
    "verdict";
  List.iter
    (fun r ->
      let b = base_of r.op in
      let base_ms =
        match b with Some b -> Printf.sprintf "%9.2f" b.par_ms | None -> "        -"
      in
      let verdicts = ref [] in
      let floor =
        match r.op with
        (* warm-started incremental re-route promises >= 2x over a cold
           re-route of the same perturbed placement; the ratio compares
           two routing runs on the same schedule, so it holds at any
           core count *)
        | "route_warm" -> 2.0
        (* the sharded fleet promises >= 1.5x throughput at 2 shards,
           but only where a second core exists to scale onto; on a
           single-core host both legs time-slice one CPU and the bench
           folds them to ratio 1.0 *)
        | "serve_fleet" when cores >= 2 -> 1.5
        | _ -> 1.0
      in
      if r.speedup < floor *. (1.0 -. tol) then begin
        fail "%s: speedup %.2fx < %.2fx floor" r.op r.speedup
          (floor *. (1.0 -. tol));
        verdicts :=
          (if floor > 1.0 then "below-contract" else "slow-parallel")
          :: !verdicts
      end;
      (match b with
      | Some b when b.digest <> "" && r.digest <> b.digest ->
          fail "%s: digest %s differs from committed %s (numerics changed)"
            r.op r.digest b.digest;
          verdicts := "digest-drift" :: !verdicts
      | _ -> ());
      (match b with
      | Some b when r.par_ms > b.par_ms *. (1. +. regress) ->
          fail "%s: par %.2f ms is %+.0f%% vs committed %.2f ms" r.op r.par_ms
            (100. *. ((r.par_ms /. b.par_ms) -. 1.))
            b.par_ms;
          verdicts := "regressed" :: !verdicts
      | _ -> ());
      Printf.printf "  %-24s %9.2f %s %7.2fx  %s\n" r.op r.par_ms base_ms
        r.speedup
        (if !verdicts = [] then "ok" else String.concat "," !verdicts))
    fresh;
  (* a kernel silently vanishing from the bench is also a regression *)
  List.iter
    (fun b ->
      if not (List.exists (fun r -> r.op = b.op) fresh) then
        fail "%s: present in baseline but missing from %s" b.op fresh_path)
    baseline;
  if !failures > 0 then begin
    Printf.printf "bench-check: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "bench-check: OK"
