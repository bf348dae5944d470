(* Log-bucketed latency histograms.  See the .mli for the contract.

   Bucket scheme: octaves [2^e, 2^(e+1)) for e in [e_min, e_max), each
   split into [sub_buckets] linear sub-buckets
   [2^e·(1+s/8), 2^e·(1+(s+1)/8)).  With e_min = -30 and e_max = 10
   that spans ~0.93 ns .. 1024 s in 40·8 = 320 regular buckets, plus
   one underflow bucket [0, 2^-30) at index 0 and one overflow bucket
   [2^10, ∞) at the end: 322 buckets.

   Storage follows what a histogram holds.  A fresh one keeps only its
   non-empty buckets, as sorted (index, count) arrays: most live for one
   compile and see a sample or two.  Past [sparse_max] non-empty buckets
   it switches, once, to one count per bucket, so a long-lived
   histogram's [record] is an array increment and allocates nothing.

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

(* [Sparse]: the first [used] slots of [keys] (ascending bucket
   indices) and [counts] (each > 0).  [Dense]: every bucket's count. *)
type repr =
  | Sparse of {
      mutable keys : int array;
      mutable counts : int array;
      mutable used : int;
    }
  | Dense of int array

type t = {
  mutable repr : repr;
  mutable total : int;
  mutable mn : float; (* nan when empty *)
  mutable mx : float;
}

let sparse_max = 16

let create () =
  {
    repr = Sparse { keys = [||]; counts = [||]; used = 0 };
    total = 0;
    mn = nan;
    mx = nan;
  }

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

let densify h =
  match h.repr with
  | Dense counts -> counts
  | Sparse sp ->
    let counts = Array.make n_buckets 0 in
    for p = 0 to sp.used - 1 do
      counts.(sp.keys.(p)) <- sp.counts.(p)
    done;
    h.repr <- Dense counts;
    counts

(* Add [c > 0] samples to bucket [i]. *)
let add h i c =
  match h.repr with
  | Dense counts -> counts.(i) <- counts.(i) + c
  | Sparse sp ->
    let p = ref 0 in
    while !p < sp.used && sp.keys.(!p) < i do
      incr p
    done;
    let p = !p in
    if p < sp.used && sp.keys.(p) = i then sp.counts.(p) <- sp.counts.(p) + c
    else if sp.used = sparse_max then begin
      let counts = densify h in
      counts.(i) <- counts.(i) + c
    end
    else begin
      if sp.used = Array.length sp.keys then begin
        let cap = min sparse_max (max 2 (2 * sp.used)) in
        let keys = Array.make cap 0 and counts = Array.make cap 0 in
        Array.blit sp.keys 0 keys 0 sp.used;
        Array.blit sp.counts 0 counts 0 sp.used;
        sp.keys <- keys;
        sp.counts <- counts
      end;
      Array.blit sp.keys p sp.keys (p + 1) (sp.used - p);
      Array.blit sp.counts p sp.counts (p + 1) (sp.used - p);
      sp.keys.(p) <- i;
      sp.counts.(p) <- c;
      sp.used <- sp.used + 1
    end

let record h v =
  add h (index_of v) 1;
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
  (match src.repr with
  | Sparse sp ->
    for p = 0 to sp.used - 1 do
      add into sp.keys.(p) sp.counts.(p)
    done
  | Dense counts ->
    let into_counts = densify into in
    for i = 0 to n_buckets - 1 do
      into_counts.(i) <- into_counts.(i) + counts.(i)
    done);
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
    (* the first non-empty bucket [i], holding [c] samples, at which
       the running count reaches [rank] *)
    let i, c, cum =
      match h.repr with
      | Dense counts ->
        let i = ref 0 and cum = ref counts.(0) in
        while !cum < rank do
          incr i;
          cum := !cum + counts.(!i)
        done;
        (!i, counts.(!i), !cum)
      | Sparse sp ->
        let p = ref 0 and cum = ref sp.counts.(0) in
        while !cum < rank do
          incr p;
          cum := !cum + sp.counts.(!p)
        done;
        (sp.keys.(!p), sp.counts.(!p), !cum)
    in
    (* Interpolate linearly inside the bucket: the rank'th sample of
       the [c] samples here, assuming uniform spread. *)
    let below = cum - c in
    let frac = float_of_int (rank - below) /. float_of_int c in
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
  let bucket i c = acc := (bucket_lo i, bucket_hi i, c) :: !acc in
  (match h.repr with
  | Dense counts ->
    for i = n_buckets - 1 downto 0 do
      if counts.(i) > 0 then bucket i counts.(i)
    done
  | Sparse sp ->
    for p = sp.used - 1 downto 0 do
      bucket sp.keys.(p) sp.counts.(p)
    done);
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
