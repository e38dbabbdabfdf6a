"""Closed-form capacity-loss and MSE curves vs SNR, averaged over channel
draws. Writes results/theory_curves.csv with one labeled row per point.

The draws are the engine's (``simulate.draw_channels``), so the
``capacity_loss`` and ``mse`` rows equal ``farsm capacity-loss`` and
``farsm mse`` at the same seed, draws and grid."""

from pathlib import Path

import numpy as np

from farsm.precoding import NoiseModel
from farsm.selection import PortSet
from farsm.simulate import SimConfig, draw_channels
from farsm.theory import (NestedSetPair, mmse_mse, mmse_mse_difference,
                          zf_capacity_loss_curve)

DRAWS = 200
SNR = np.arange(-10.0, 41.0, 2.0)
SEED = 2024

cfg = SimConfig(snr_db=tuple(SNR.tolist()), master_seed=SEED)
pair = NestedSetPair(inner=PortSet(range(1, cfg.n_a + 1)),
                     outer=PortSet(range(1, cfg.n_ports + 1)))
channels = draw_channels(cfg, DRAWS).channels

out = Path("results")
out.mkdir(exist_ok=True)
with open(out / "theory_curves.csv", "w") as fh:
    fh.write("metric,snr_db,value\n")
    noises = [NoiseModel.from_snr_db(snr) for snr in SNR]
    # one factoring of the draws serves every point and the bound
    losses, bounds = zf_capacity_loss_curve(channels, pair, noises)
    for snr, noise, losses_at in zip(SNR, noises, losses):
        loss = np.mean(losses_at)
        mse = np.mean(mmse_mse(channels, pair.inner, noise))
        diff = np.mean(mmse_mse_difference(channels, pair, noise))
        fh.write(f"capacity_loss,{snr:g},{loss:.10g}\n")
        fh.write(f"mse,{snr:g},{mse:.10g}\n")
        fh.write(f"mse_difference,{snr:g},{diff:.10g}\n")
    bound = np.mean(bounds)
    fh.write(f"capacity_loss_bound,,{bound:.10g}\n")
print(f"wrote {out / 'theory_curves.csv'}")
