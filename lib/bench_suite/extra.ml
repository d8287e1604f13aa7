(* A second application mix, beyond the paper's Table 1.

   The paper's pitch for the ASIP is short-turnaround retargeting to a new
   application suite; this mix exercises that story.  Each kernel has a
   distinctive chain signature: matmul is pure MAC, xcorr mixes MACs with
   index arithmetic, acs is the Viterbi add-compare-select pattern (the
   chain that real communication DSPs implement as a fused ACS unit), and
   quant is a subtract-multiply-accumulate distance search. *)

let matmul_source =
  {|
int a[64];
int b[64];
int c[64];

void main() {
  int i;
  int j;
  int k;
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      int s = 0;
      for (k = 0; k < 8; k++) {
        s = s + a[i * 8 + k] * b[k * 8 + j];
      }
      c[i * 8 + j] = s;
    }
  }
}
|}

let matmul =
  {
    Benchmark.name = "matmul";
    description = "8x8 integer matrix multiplication";
    data_input = "Two 8x8 random integer matrices";
    source = matmul_source;
    inputs =
      (fun () ->
        [ ("a", Data.int_stream ~seed:2101 ~len:64);
          ("b", Data.int_stream ~seed:2102 ~len:64) ]);
    output_regions = [ "c" ];
  }

let xcorr_source =
  {|
int sig1[128];
int sig2[128];
int corr[32];

void main() {
  int lag;
  int n;
  for (lag = 0; lag < 32; lag++) {
    int s = 0;
    for (n = 0; n < 96; n++) {
      s = s + sig1[n] * sig2[n + lag];
    }
    corr[lag] = s >> 6;
  }
}
|}

let xcorr =
  {
    Benchmark.name = "xcorr";
    description = "Cross-correlation over 32 lags";
    data_input = "Two streams of 128 random integer values";
    source = xcorr_source;
    inputs =
      (fun () ->
        [ ("sig1", Data.int_stream ~seed:2201 ~len:128);
          ("sig2", Data.int_stream ~seed:2202 ~len:128) ]);
    output_regions = [ "corr" ];
  }

let acs_source =
  {|
int metric[16];
int next[16];
int branch[256];
int decision[256];

void main() {
  int t;
  int s;
  int i;
  for (s = 0; s < 16; s++) {
    metric[s] = 0;
  }
  for (t = 0; t < 16; t++) {
    for (s = 0; s < 16; s++) {
      /* Two predecessors per state; add branch metrics, compare, select. */
      int p0 = (s << 1) & 15;
      int p1 = p0 | 1;
      int m0 = metric[p0] + branch[t * 16 + p0];
      int m1 = metric[p1] + branch[t * 16 + p1];
      if (m0 <= m1) {
        next[s] = m0;
        decision[t * 16 + s] = 0;
      } else {
        next[s] = m1;
        decision[t * 16 + s] = 1;
      }
    }
    for (i = 0; i < 16; i++) {
      metric[i] = next[i];
    }
  }
}
|}

let acs =
  {
    Benchmark.name = "acs";
    description = "Viterbi add-compare-select over a 16-state trellis";
    data_input = "256 random branch metrics";
    source = acs_source;
    inputs =
      (fun () ->
        [ ("branch",
           Array.map
             (fun v ->
               match v with
               | Asipfb_exec.Value.Vint n -> Asipfb_exec.Value.Vint (abs n)
               | other -> other)
             (Data.int_stream ~seed:2301 ~len:256)) ]);
    output_regions = [ "metric"; "decision" ];
  }

let quant_source =
  {|
int vectors[128];
int codebook[64];
int assignment[16];

void main() {
  int v;
  int c;
  int d;
  for (v = 0; v < 16; v++) {
    int best = 1 << 30;
    int best_c = 0;
    for (c = 0; c < 8; c++) {
      int dist = 0;
      for (d = 0; d < 8; d++) {
        int diff = vectors[v * 8 + d] - codebook[c * 8 + d];
        dist = dist + diff * diff;
      }
      if (dist < best) {
        best = dist;
        best_c = c;
      }
    }
    assignment[v] = best_c;
  }
}
|}

let quant =
  {
    Benchmark.name = "quant";
    description = "Vector quantization: nearest-codeword search";
    data_input = "16 8-dim vectors against an 8-codeword codebook";
    source = quant_source;
    inputs =
      (fun () ->
        [ ("vectors", Data.int_stream ~seed:2401 ~len:128);
          ("codebook", Data.int_stream ~seed:2402 ~len:64) ]);
    output_regions = [ "assignment" ];
  }

let all = [ matmul; xcorr; acs; quant ]
