"""Runs every acceptance criterion at its stated tolerance, printing one
pass/fail line per criterion (visible even under pytest capture)."""

import io
import sys

import pytest

from ctrop import acceptance
from ctrop.errors import DomainError
from ctrop.laurent import LaurentPolynomial


class _Tee:
    def __init__(self, *streams):
        self.streams = streams

    def write(self, text):
        for s in self.streams:
            s.write(text)

    def flush(self):
        for s in self.streams:
            s.flush()


def test_acceptance_suite(capsys):
    buf = io.StringIO()
    with capsys.disabled():
        sys.stdout.write("\n")
        failures = acceptance.run(out=_Tee(sys.stdout, buf))
    assert failures == 0, "acceptance criteria failed:\n" + buf.getvalue()


def test_truncated_frozen_theta_is_reported_as_truncated(monkeypatch):
    # a frozen theta function that hits the degree bound is a truncation
    def theta_on_x(dia, lab, em):
        return LaurentPolynomial.one(len(lab)), False

    monkeypatch.setattr(acceptance, "theta_on_x", theta_on_x)
    with pytest.raises(DomainError) as err:
        acceptance._grassmannian_slice(2, 4, 1)
    assert err.value.code == "truncated"
