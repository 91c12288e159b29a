"""Characterisation of every method x policy run on three small instances.

Each run is pinned bit-for-bit: a hash of ``x.tobytes()``, the three
counters, the iteration count, the hex of ``residual_inf`` and of
``error_bound``, and the feasible flag.  The instances cover the
zero-diagonal worked example, an HJB grid whose stay-put control puts 0.95
on every diagonal, and a dominant-diagonal instance on which the hat
problem's row-sum rate and ``gamma_hat`` differ in the last bits, so the
rate each method reports its bound from is pinned as well.
"""

import hashlib

import numpy as np
import pytest

from glbopt import LinearGlbProblem, bench, dominant_diagonal_problem, hjb_grid_problem
from glbopt.queues import POLICIES


def _two_var():
    A = np.array([[0.0, 0.5], [0.5, 0.0]])
    return LinearGlbProblem([(A, np.array([1.0, 1.0]))], U=[10.0, 10.0])


def _hjb_drift1d():
    return hjb_grid_problem(bench.hjb_preset("drift1d", 41, discount=0.1))


def _dominant_diagonal():
    return dominant_diagonal_problem(6, 2, gamma=0.9, delta=0.3, seed=5)


# name -> (builder, eps)
INSTANCES = {
    "two_var": (_two_var, 1e-9),
    "hjb_drift1d": (_hjb_drift1d, 1e-9),
    "dominant_diagonal": (_dominant_diagonal, 1e-4),
}


def run(name, method, policy):
    build, eps = INSTANCES[name]
    return bench.solve_with_method(build(), method, policy=policy, eps=eps)


def fingerprint(report):
    return (
        hashlib.sha256(report.x.tobytes()).hexdigest()[:32],
        report.scalar_multiplications,
        report.component_updates,
        report.dequeues,
        report.iterations,
        report.residual_inf.hex(),
        None if report.error_bound is None else report.error_bound.hex(),
        report.feasible,
    )


EXPECTED = {
    ('two_var', 'fixed-plain', 'variation'): ('1caeca5af96f3e7c61c6b5fa9243665f', 66, 0, 0, 33, '0x1.0000000000000p-30', '0x1.12e0be826d695p-29', True),
    ('two_var', 'fixed-plain', 'value'): ('1caeca5af96f3e7c61c6b5fa9243665f', 66, 0, 0, 33, '0x1.0000000000000p-30', '0x1.12e0be826d695p-29', True),
    ('two_var', 'fixed-plain', 'fifo'): ('1caeca5af96f3e7c61c6b5fa9243665f', 66, 0, 0, 33, '0x1.0000000000000p-30', '0x1.12e0be826d695p-29', True),
    ('two_var', 'fixed-plain', 'lifo'): ('1caeca5af96f3e7c61c6b5fa9243665f', 66, 0, 0, 33, '0x1.0000000000000p-30', '0x1.12e0be826d695p-29', True),
    ('two_var', 'fixed-precond', 'variation'): ('1caeca5af96f3e7c61c6b5fa9243665f', 66, 0, 0, 33, '0x1.0000000000000p-30', '0x1.12e0be826d695p-29', True),
    ('two_var', 'fixed-precond', 'value'): ('1caeca5af96f3e7c61c6b5fa9243665f', 66, 0, 0, 33, '0x1.0000000000000p-30', '0x1.12e0be826d695p-29', True),
    ('two_var', 'fixed-precond', 'fifo'): ('1caeca5af96f3e7c61c6b5fa9243665f', 66, 0, 0, 33, '0x1.0000000000000p-30', '0x1.12e0be826d695p-29', True),
    ('two_var', 'fixed-precond', 'lifo'): ('1caeca5af96f3e7c61c6b5fa9243665f', 66, 0, 0, 33, '0x1.0000000000000p-30', '0x1.12e0be826d695p-29', True),
    ('two_var', 'selective-plain', 'variation'): ('3fdb8b0713d7627101d7e4b723114f0d', 36, 34, 34, 34, '0x1.8000000000000p-31', '0x1.12e0be826d695p-29', True),
    ('two_var', 'selective-plain', 'value'): ('3fdb8b0713d7627101d7e4b723114f0d', 36, 34, 34, 34, '0x1.8000000000000p-31', '0x1.12e0be826d695p-29', True),
    ('two_var', 'selective-plain', 'fifo'): ('3fdb8b0713d7627101d7e4b723114f0d', 36, 34, 34, 34, '0x1.8000000000000p-31', '0x1.12e0be826d695p-29', True),
    ('two_var', 'selective-plain', 'lifo'): ('e8f963e93e5b648bb7a11584ccfe1432', 36, 34, 34, 34, '0x1.8000000000000p-31', '0x1.12e0be826d695p-29', True),
    ('two_var', 'selective-precond', 'variation'): ('3fdb8b0713d7627101d7e4b723114f0d', 36, 34, 34, 34, '0x1.8000000000000p-31', '0x1.12e0be826d695p-29', True),
    ('two_var', 'selective-precond', 'value'): ('3fdb8b0713d7627101d7e4b723114f0d', 36, 34, 34, 34, '0x1.8000000000000p-31', '0x1.12e0be826d695p-29', True),
    ('two_var', 'selective-precond', 'fifo'): ('3fdb8b0713d7627101d7e4b723114f0d', 36, 34, 34, 34, '0x1.8000000000000p-31', '0x1.12e0be826d695p-29', True),
    ('two_var', 'selective-precond', 'lifo'): ('e8f963e93e5b648bb7a11584ccfe1432', 36, 34, 34, 34, '0x1.8000000000000p-31', '0x1.12e0be826d695p-29', True),
    ('hjb_drift1d', 'fixed-plain', 'variation'): ('d1cfe001dde2b3c7025f9806e519ee44', 59192, 0, 0, 392, '0x1.0bf0f40000000p-30', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'fixed-plain', 'value'): ('d1cfe001dde2b3c7025f9806e519ee44', 59192, 0, 0, 392, '0x1.0bf0f40000000p-30', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'fixed-plain', 'fifo'): ('d1cfe001dde2b3c7025f9806e519ee44', 59192, 0, 0, 392, '0x1.0bf0f40000000p-30', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'fixed-plain', 'lifo'): ('d1cfe001dde2b3c7025f9806e519ee44', 59192, 0, 0, 392, '0x1.0bf0f40000000p-30', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'fixed-precond', 'variation'): ('11dc0faeb905b196a20fe794081e5d52', 648, 0, 0, 6, '0x0.0p+0', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'fixed-precond', 'value'): ('11dc0faeb905b196a20fe794081e5d52', 648, 0, 0, 6, '0x0.0p+0', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'fixed-precond', 'fifo'): ('11dc0faeb905b196a20fe794081e5d52', 648, 0, 0, 6, '0x0.0p+0', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'fixed-precond', 'lifo'): ('11dc0faeb905b196a20fe794081e5d52', 648, 0, 0, 6, '0x0.0p+0', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'selective-plain', 'variation'): ('5a2b25e11aa9a85dd80c145a1b2459fc', 37006, 10026, 10026, 10026, '0x1.0e15308000000p-30', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'selective-plain', 'value'): ('cdb2eed7999ee5dd4eb20f48c0ff9825', 15876, 4489, 4489, 4489, '0x1.11f3b20000000p-30', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'selective-plain', 'fifo'): ('14625096221369ae93d2609ea1a8ab83', 45545, 12021, 12021, 12021, '0x1.1270e00000000p-30', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'selective-plain', 'lifo'): ('72dc7a7b7cfb6c0a99bbac0f1cb2b6b9', 55578, 16842, 16842, 16842, '0x1.11f3b20000000p-30', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'selective-precond', 'variation'): ('593297616f5136ab9ebd47727b731457', 216, 41, 41, 41, '0x1.0000000000000p-51', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'selective-precond', 'value'): ('e24b84b679796f32d78aad24ba1562d2', 296, 68, 68, 68, '0x1.0000000000000p-51', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'selective-precond', 'fifo'): ('383caccd2383b1f6f04c8decd06f7b66', 286, 64, 64, 64, '0x0.0p+0', '0x1.5798ee2308c35p-26', True),
    ('hjb_drift1d', 'selective-precond', 'lifo'): ('441c4e3e9196ca1a65356d901a5d7df3', 262, 61, 61, 61, '0x1.2c00000000000p-45', '0x1.5798ee2308c35p-26', True),
    ('dominant_diagonal', 'fixed-plain', 'variation'): ('8f34dc596b7622a502e489b6c524fa42', 3204, 0, 0, 89, '0x1.6fd14623e0000p-14', '0x1.9cd34019cd340p-11', True),
    ('dominant_diagonal', 'fixed-plain', 'value'): ('8f34dc596b7622a502e489b6c524fa42', 3204, 0, 0, 89, '0x1.6fd14623e0000p-14', '0x1.9cd34019cd340p-11', True),
    ('dominant_diagonal', 'fixed-plain', 'fifo'): ('8f34dc596b7622a502e489b6c524fa42', 3204, 0, 0, 89, '0x1.6fd14623e0000p-14', '0x1.9cd34019cd340p-11', True),
    ('dominant_diagonal', 'fixed-plain', 'lifo'): ('8f34dc596b7622a502e489b6c524fa42', 3204, 0, 0, 89, '0x1.6fd14623e0000p-14', '0x1.9cd34019cd340p-11', True),
    ('dominant_diagonal', 'fixed-precond', 'variation'): ('85df37a29e64ce926e064ffd01dc7b2d', 456, 0, 0, 19, '0x1.963939dbb0000p-15', '0x1.840e415feef8bp-13', True),
    ('dominant_diagonal', 'fixed-precond', 'value'): ('85df37a29e64ce926e064ffd01dc7b2d', 456, 0, 0, 19, '0x1.963939dbb0000p-15', '0x1.840e415feef8bp-13', True),
    ('dominant_diagonal', 'fixed-precond', 'fifo'): ('85df37a29e64ce926e064ffd01dc7b2d', 456, 0, 0, 19, '0x1.963939dbb0000p-15', '0x1.840e415feef8bp-13', True),
    ('dominant_diagonal', 'fixed-precond', 'lifo'): ('85df37a29e64ce926e064ffd01dc7b2d', 456, 0, 0, 19, '0x1.963939dbb0000p-15', '0x1.840e415feef8bp-13', True),
    ('dominant_diagonal', 'selective-plain', 'variation'): ('eda0b28612b3b5a8fe502b5e425223f5', 2964, 488, 488, 488, '0x1.a1a6949c70000p-14', '0x1.9cd34019cd340p-11', True),
    ('dominant_diagonal', 'selective-plain', 'value'): ('295c1be43980337d580b2e0b6ef10ff2', 238694, 40406, 40406, 40406, '0x1.9e678bc6b0000p-14', '0x1.9cd34019cd340p-11', True),
    ('dominant_diagonal', 'selective-plain', 'fifo'): ('5816f875a1e41ae4020301073fb660c5', 3010, 496, 496, 496, '0x1.9e0a204198000p-14', '0x1.9cd34019cd340p-11', True),
    ('dominant_diagonal', 'selective-plain', 'lifo'): ('8f636ae6993c1fa335f0c567d6b371fa', 168325, 24793, 24793, 24793, '0x1.8416c2a820000p-14', '0x1.9cd34019cd340p-11', True),
    ('dominant_diagonal', 'selective-precond', 'variation'): ('dd84c140b4d780f6a90c9fee54f8b344', 216, 48, 48, 48, '0x1.7783ec5588000p-14', '0x1.840e415feef89p-13', True),
    ('dominant_diagonal', 'selective-precond', 'value'): ('bcaa1346e033d88ea126e13f81176b64', 1045, 251, 251, 251, '0x1.03d20bd428000p-14', '0x1.840e415feef89p-13', True),
    ('dominant_diagonal', 'selective-precond', 'fifo'): ('5c001390001006de775d742e94673526', 251, 57, 57, 57, '0x1.6ee3ee32b8000p-14', '0x1.840e415feef89p-13', True),
    ('dominant_diagonal', 'selective-precond', 'lifo'): ('1457787e42836fa49c93bcabf62a74cd', 709, 159, 159, 159, '0x1.26c32aff40000p-14', '0x1.840e415feef89p-13', True),
}


@pytest.mark.parametrize("name", tuple(INSTANCES))
@pytest.mark.parametrize("method", bench.METHODS)
@pytest.mark.parametrize("policy", POLICIES)
def test_run_is_pinned(name, method, policy):
    assert fingerprint(run(name, method, policy)) == EXPECTED[(name, method, policy)]
