"""Energy-ratio histograms across SNR, for picking the ratio-test threshold
gamma. Writes results/ratio_calibration.csv."""

import time
from pathlib import Path

from farsm.simulate import SimConfig, run_ratio_sweep

TRIALS = 500_000
SNR = (-5.0, 0.0, 5.0, 10.0, 15.0)

cfg = SimConfig(precoder="mmse", portsel="tmd", snr_db=SNR, trials=TRIALS,
                master_seed=11, bins=50)
t0 = time.perf_counter()
hists = run_ratio_sweep(cfg).histograms
print(f"{len(SNR)} SNR points, {TRIALS} trials each: "
      f"{time.perf_counter() - t0:.1f}s")

out = Path("results")
out.mkdir(exist_ok=True)
with open(out / "ratio_calibration.csv", "w") as fh:
    fh.write("snr_db,bin_low,bin_high,count\n")
    for h in hists:
        print(f"  {h.snr_db:+.0f} dB: median ratio {h.median:.3f}")
        for lo, hi, c in zip(h.bin_edges, h.bin_edges[1:], h.counts):
            fh.write(f"{h.snr_db:g},{lo:.10g},{hi:.10g},{int(c)}\n")
print(f"wrote {out / 'ratio_calibration.csv'}")
