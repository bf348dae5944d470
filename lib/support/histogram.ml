(* Log-bucketed latency histograms.  See the .mli for the contract.

   Bucket scheme: octaves [2^e, 2^(e+1)) for e in [e_min, e_max), each
   split into [sub_buckets] linear sub-buckets
   [2^e·(1+s/8), 2^e·(1+(s+1)/8)).  With e_min = -30 and e_max = 10
   that spans ~0.93 ns .. 1024 s in 40·8 = 320 regular buckets, plus
   one underflow bucket [0, 2^-30) at index 0 and one overflow bucket
   [2^10, ∞) at the end — 322 ints per histogram.

   Indexing is [frexp]: for v > 0, [frexp v = (m, e')] with m in
   [0.5, 1), so v = m·2^e' lies in octave e'-1 and the sub-bucket is
   ⌊(2m - 1)·8⌋ — a handful of float ops, no table walk, and a pure
   function of the sample's bits (the determinism contract rests on
   this).  Bounds are rebuilt with [ldexp], hence exact binary floats
   that survive %.17g round-trips.

   There is intentionally NO running sum of samples: float addition is
   order-sensitive, and a sum would break the merge-associativity
   property test_obslog fuzzes.  Min/max are kept instead (exact
   sample values; min and max of a multiset are order-free). *)

let sub_buckets = 8
let e_min = -30
let e_max = 10
let n_regular = (e_max - e_min) * sub_buckets
let n_buckets = n_regular + 2 (* + underflow + overflow *)
let overflow = n_buckets - 1

type t = {
  counts : int array; (* length n_buckets *)
  mutable total : int;
  mutable mn : float; (* nan when empty *)
  mutable mx : float;
}

let create () =
  { counts = Array.make n_buckets 0; total = 0; mn = nan; mx = nan }

let index_of v =
  if not (v > 0.0) then 0 (* ≤ 0, NaN *)
  else
    let m, e' = Float.frexp v in
    let oct = e' - 1 in
    if oct < e_min then 0
    else if oct >= e_max then overflow
    else
      let sub = int_of_float (((m *. 2.0) -. 1.0) *. float_of_int sub_buckets) in
      let sub = if sub >= sub_buckets then sub_buckets - 1 else sub in
      1 + ((oct - e_min) * sub_buckets) + sub

(* Inverse of [index_of] for regular buckets: exact binary bounds. *)
let bucket_lo i =
  if i = 0 then 0.0
  else if i = overflow then Float.ldexp 1.0 e_max
  else
    let r = i - 1 in
    let oct = e_min + (r / sub_buckets) and sub = r mod sub_buckets in
    Float.ldexp (1.0 +. (float_of_int sub /. float_of_int sub_buckets)) oct

let bucket_hi i = if i = overflow then infinity else bucket_lo (i + 1)

let record h v =
  let i = index_of v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.total <- h.total + 1;
  (* NaN samples count but do not disturb min/max. *)
  if Float.is_nan v then ()
  else begin
    if Float.is_nan h.mn || v < h.mn then h.mn <- v;
    if Float.is_nan h.mx || v > h.mx then h.mx <- v
  end

let count h = h.total
let min_sample h = h.mn
let max_sample h = h.mx

let merge_into ~into src =
  for i = 0 to n_buckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.total <- into.total + src.total;
  if not (Float.is_nan src.mn) then
    if Float.is_nan into.mn || src.mn < into.mn then into.mn <- src.mn;
  if not (Float.is_nan src.mx) then
    if Float.is_nan into.mx || src.mx > into.mx then into.mx <- src.mx

let quantile h q =
  if h.total = 0 then nan
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.total)) in
      if r < 1 then 1 else r
    in
    (* The 1st and the last order statistic are known exactly. *)
    if rank <= 1 && not (Float.is_nan h.mn) then h.mn
    else if rank >= h.total && not (Float.is_nan h.mx) then h.mx
    else begin
    let i = ref 0 and cum = ref h.counts.(0) in
    while !cum < rank do
      incr i;
      cum := !cum + h.counts.(!i)
    done;
    let i = !i in
    (* Interpolate linearly inside the bucket: the rank'th sample of
       the [counts.(i)] samples here, assuming uniform spread. *)
    let below = !cum - h.counts.(i) in
    let frac =
      float_of_int (rank - below) /. float_of_int h.counts.(i)
    in
    let lo = bucket_lo i in
    let hi = bucket_hi i in
    let v =
      if i = overflow then lo (* no finite width to spread over *)
      else lo +. (frac *. (hi -. lo))
    in
    (* Clamp to observed extremes: buckets overshoot real samples. *)
    let v = if not (Float.is_nan h.mn) && v < h.mn then h.mn else v in
    let v = if not (Float.is_nan h.mx) && v > h.mx then h.mx else v in
    v
    end
  end

let buckets h =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.counts.(i) > 0 then
      acc := (bucket_lo i, bucket_hi i, h.counts.(i)) :: !acc
  done;
  !acc

let to_json h =
  let fl v : Json.t = if Float.is_nan v then Null else Float v in
  let q p = if h.total = 0 then Json.Null else fl (quantile h p) in
  Json.Assoc
    [
      ("count", Int h.total);
      ("min", fl h.mn);
      ("max", fl h.mx);
      ("p50", q 0.5);
      ("p90", q 0.9);
      ("p99", q 0.99);
      ( "buckets",
        List
          (List.map
             (fun (lo, hi, c) ->
               Json.Assoc [ ("lo", Float lo); ("hi", Float hi); ("count", Int c) ])
             (buckets h)) );
    ]
