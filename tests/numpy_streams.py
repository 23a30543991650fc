"""numpy's own generators of a run's streams, for the oracles.

``aoisched`` seeds and draws every stream in its compiled kernel.  An
oracle that read those draws would check the kernel against itself, so
the oracles build the streams here, from numpy alone, in the layout
``aoisched.rng`` states: ``SeedSequence([seed]).spawn(3)`` gives the
parent of the arrival streams, the policy stream and the success stream.
"""

import numpy as np


def numpy_substreams(seed: int, n_arrival: int):
    """(arrival generators, policy generator, success generator) of the run
    seed ``seed``, as numpy builds them."""
    arrivals, policy, success = np.random.SeedSequence([seed]).spawn(3)

    def generator(child):
        return np.random.Generator(np.random.PCG64(child))
    return ([generator(c) for c in arrivals.spawn(n_arrival)], generator(policy),
            generator(success))
