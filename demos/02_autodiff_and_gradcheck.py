"""The numerics core: taped tensors, backward, and finite-difference checking."""

import numpy as np

from ccnrank import numerics as nm
from ccnrank.layers import LstmParams, init_lstm_arrays, lstm_encode
from ccnrank.numerics import ParameterSet, RmsProp, Tensor, backward, finite_diff_check

# a scalar chain: d/dw sigmoid(w * w) at w = 1.2
w = Tensor(1.2, requires_grad=True)
out = nm.mul(w, w).sigmoid()
backward(nm.tsum(out))
s = 1.0 / (1.0 + np.exp(-1.44))
print(f"d sigmoid(w^2)/dw at 1.2: taped {float(w.grad):.10f}, closed form {2.4 * s * (1 - s):.10f}\n")

# gradient-check a full LSTM encoder against central differences
rng = np.random.default_rng(0)
ps = ParameterSet()
w_in, w_rec, bias = init_lstm_arrays(input_dim=5, hidden_size=6, rng=rng)
params = LstmParams(w_in=ps.add("w_in", w_in), w_rec=ps.add("w_rec", w_rec), bias=ps.add("bias", bias))
x = ps.add("x", rng.normal(size=(1, 5, 9)))  # one sequence: a one-row batch [B x N x L]

def loss():
    h = lstm_encode(x, np.array([9]), params)
    return nm.tsum(nm.mul(h, h))

report = finite_diff_check(loss, ps, h=1e-5, tolerance=1e-4)
print("LSTM gradient check:")
for name, err in report.errors_by_parameter.items():
    print(f"  {name:8s} max relative error {err:.2e}")
print(f"  worst: {report.worst_parameter} -> {'PASS' if report.passed else 'FAIL'}\n")

# a few RMSProp steps on a quadratic bowl
ps2 = ParameterSet()
theta = ps2.add("theta", np.array([3.0, -2.0]))
opt = RmsProp(ps2, learning_rate=0.05)
for step in range(200):
    objective = nm.tsum(nm.mul(theta, theta))
    backward(objective)
    opt.step()
print(f"after 200 RMSProp steps on |theta|^2: theta = {theta.data.round(4)}")
