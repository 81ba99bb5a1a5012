type t = {
  bpo : int;
  counts : (int, int ref) Hashtbl.t; (* bucket index -> samples *)
  mutable zeros : int; (* samples <= 0, kept exact *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create ?(buckets_per_octave = 16) () =
  if buckets_per_octave <= 0 then
    invalid_arg "Histogram.create: buckets_per_octave <= 0";
  {
    bpo = buckets_per_octave;
    counts = Hashtbl.create 64;
    zeros = 0;
    count = 0;
    sum = 0.;
    min_v = 0.;
    max_v = 0.;
  }

let bucket_of t v =
  (* floor (log2 v * bpo): every bucket spans a 2^(1/bpo) ratio. *)
  int_of_float (Float.floor (Float.log2 v *. float_of_int t.bpo))

let observe t v =
  let v = Float.max v 0. in
  if t.count = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v = 0. then t.zeros <- t.zeros + 1
  else
    let idx = bucket_of t v in
    match Hashtbl.find_opt t.counts idx with
    | Some r -> incr r
    | None -> Hashtbl.add t.counts idx (ref 1)

let buckets_per_octave t = t.bpo

let merge_into ~into src =
  if into.bpo <> src.bpo then
    invalid_arg
      (Printf.sprintf
         "Histogram.merge_into: buckets_per_octave mismatch (%d vs %d)"
         into.bpo src.bpo);
  if src.count > 0 then begin
    if into.count = 0 then begin
      into.min_v <- src.min_v;
      into.max_v <- src.max_v
    end
    else begin
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v
    end;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    into.zeros <- into.zeros + src.zeros;
    Hashtbl.iter
      (fun idx r ->
        match Hashtbl.find_opt into.counts idx with
        | Some r' -> r' := !r' + !r
        | None -> Hashtbl.add into.counts idx (ref !r))
      src.counts
  end

let merge a b =
  let t = create ~buckets_per_octave:a.bpo () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count
let min_value t = t.min_v
let max_value t = t.max_v
let bucket_ratio t = Float.pow 2. (1. /. float_of_int t.bpo)

let representative t idx =
  (* Geometric midpoint of [2^(idx/bpo), 2^((idx+1)/bpo)). *)
  Float.pow 2. ((float_of_int idx +. 0.5) /. float_of_int t.bpo)

let percentile t q =
  if t.count = 0 then 0.
  else if q <= 0. then t.min_v
  else if q >= 1. then t.max_v
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
    in
    if rank <= t.zeros then 0.
    else begin
      let buckets =
        Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) t.counts []
        |> List.sort compare
      in
      let rec walk cum = function
        | [] -> t.max_v
        | (idx, c) :: rest ->
          let cum = cum + c in
          if rank <= cum then
            Float.min t.max_v (Float.max t.min_v (representative t idx))
          else walk cum rest
      in
      walk t.zeros buckets
    end
  end

type quantiles = { q50 : float; q95 : float; q99 : float; q_mean : float }

let quantiles t =
  {
    q50 = percentile t 0.50;
    q95 = percentile t 0.95;
    q99 = percentile t 0.99;
    q_mean = mean t;
  }
