"""Input definitions shared by the workloads and the reference generator.

Plain Python values only, so that the generator (mpmath) and the timed
workloads (immse) read the same numbers.  Probabilities and atom values are
written with 17 significant digits so that parsing the CLI spec string gives
back exactly these floats.
"""
import math

SNR_DB_SPEC = "-10:30:0.2"          # 201 points, passed to the CLI as --snr-db

PAM16_VALUES = [float(format((2 * k - 17) / math.sqrt(85.0), ".17g"))
                for k in range(1, 17)]
PAM16_PROBS = [0.0625] * 16

# The three-component mixture of acceptance criterion 1.
MIX3 = {"weights": [0.3, 0.5, 0.2], "means": [-1.5, 0.2, 1.8],
        "variances": [0.4, 0.9, 0.2]}

CURVE_INPUTS = {
    "binary": "binary",
    "pam16": "atoms:" + ";".join(f"{v!r},{p!r}" for v, p in
                                 zip(PAM16_VALUES, PAM16_PROBS)),
    "mix3": "mixture:" + ";".join(
        f"{w!r},{m!r},{v!r}" for w, m, v in
        zip(MIX3["weights"], MIX3["means"], MIX3["variances"])),
}
CURVE_QUANTITIES = ("mi", "mmse", "fisher")
TELEGRAPH_NU = 1.0
AR_A, AR_N = 0.9, 50

# represent: criterion-13 mixture, 4-PAM, gridded uniform on [-sqrt3, sqrt3]
PAM4_VALUES = [-3.0, -1.0, 1.0, 3.0]
MIX2 = {"weights": [0.5, 0.5], "means": [-1.0, 1.0], "variances": [0.25, 0.25]}
UNIFORM_POINTS = 201
UNIFORM_TAIL = (400.0, "gaussian_tail")
EPI_SEED = 13                       # criterion 13's five random mixture pairs

# telegraph: criterion 10's model, scaled down to 16,000 paths
ENSEMBLE = {"nu": 1.0, "snr": math.sqrt(10.0), "dt": 1e-3, "horizon": 10.0,
            "paths": 16_000}
DUMP = {"nu": 1.0, "snr": 1.0, "horizon": 10.0}   # CLI defaults for nu, snr

# mc_atoms: criteria 4-7 and a 16-point 2-D constellation through 3x2 H
C4_SNR = 1.2
C4_GAINS = [1.0, 1.5]               # H = diag(1, 1.5), so snr_2 = 2.25 snr
C6_SNR = 1.0
QAM16 = [[a / math.sqrt(10.0), b / math.sqrt(10.0)]
         for a in (-3.0, -1.0, 1.0, 3.0) for b in (-3.0, -1.0, 1.0, 3.0)]
QAM_H_SEED = 16                     # H is fixed so its oracle can be stored
QAM_SNR = 4.0
