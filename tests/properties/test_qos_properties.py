"""Property-based tests for QoS planning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AppProfile, QoSPartitioner, QoSTarget, Workload
from repro.util.errors import InfeasibleError


@st.composite
def qos_scenario(draw):
    n = draw(st.integers(2, 6))
    apps = [
        AppProfile(
            f"a{i}",
            api=draw(st.floats(1e-3, 0.05)),
            apc_alone=draw(st.floats(5e-4, 0.009)),
        )
        for i in range(n)
    ]
    wl = Workload.of("hyp", apps)
    b = draw(st.floats(0.003, 0.012))
    n_targets = draw(st.integers(1, n))
    targets = [
        QoSTarget(f"a{i}", apps[i].ipc_alone * draw(st.floats(0.05, 1.0)))
        for i in range(n_targets)
    ]
    return wl, b, targets


class TestPlanProperties:
    @given(qos_scenario())
    @settings(max_examples=80, deadline=None)
    def test_plan_feasibility_invariants(self, scenario):
        """Whenever a plan exists: targets pinned exactly, bandwidth
        conserved, nobody above standalone demand."""
        wl, b, targets = scenario
        try:
            plan = QoSPartitioner().plan(wl, b, targets)
        except InfeasibleError:
            # must genuinely be infeasible: reservations exceed B or a
            # target exceeds alone IPC
            total_res = sum(
                t.ipc_target * wl[wl.index_of(t.app_name)].api for t in targets
            )
            over = any(
                t.ipc_target > wl[wl.index_of(t.app_name)].ipc_alone + 1e-12
                for t in targets
            )
            assert over or total_res > b - 1e-12
            return
        op = plan.operating_point
        for t in targets:
            i = wl.index_of(t.app_name)
            assert op.ipc_shared[i] == pytest.approx(t.ipc_target, rel=1e-9)
        assert plan.apc_shared.sum() <= b + 1e-9
        assert np.all(plan.apc_shared <= wl.apc_alone + 1e-12)
