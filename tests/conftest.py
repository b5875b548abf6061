"""Shared test helpers."""

import pytest

from regpos import _ascent


@pytest.fixture
def ascent_extrema():
    """The ascent's (S,) extrema of a stack on any body, whatever route its
    survey would take: a reference for the exact and vertex routes.  A
    section's value does not depend on the parts its survey was cut into for
    another route."""

    def extrema(body, Zs, Ps, mode, rng, effort=_ascent.SURVEY):
        job = _ascent.survey(body, Zs, Ps, mode, rng, effort)._replace(route="ascent")
        return _ascent.run_surveys([job])[0]

    return extrema
