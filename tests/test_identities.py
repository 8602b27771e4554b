"""Every identity of verify's table at every n up to MAX_N, at its gate.

`verify` runs the spin families at n <= 3 (scalarity at n = 2), where every
residual stays below its 1e-10 tolerance; here each entry runs at every n in
1..MAX_N, on SAMPLES samples, against the same gate, `verify.GATE`.
"""

import numpy as np
import pytest

from bwspinor import verify
from bwspinor.bw import MAX_N

SAMPLES = 300

# entries that enumerate an exact table instead of drawing samples
EXACT = (verify.spinor_tables, verify.gamma_tables)

CASES = [pytest.param(entry, n, id=f"{entry.run.__name__}-n{n}")
         for entry in verify.IDENTITIES
         for n in (range(1, MAX_N + 1) if entry.ns != (None,) else (None,))]


@pytest.mark.parametrize("entry, n", CASES)
def test_identity_within_its_gate(entry, n):
    rng = np.random.default_rng(100 + (n or 0))
    failed = {}
    for name, residual in entry.run(rng, n, SAMPLES):
        assert entry.run in EXACT or residual.shape == (SAMPLES,), name
        worst = float(np.max(residual))
        if not worst < verify.GATE:
            failed[name] = worst
    assert not failed, f"residuals above {verify.GATE}: {failed}"

