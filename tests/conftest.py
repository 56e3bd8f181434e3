import numpy as np
import pytest

from rieszmatch import ObservationalDataset, TwoSampleData


@pytest.fixture
def running_two_sample():
    """Denominator {0,1,2,3}, numerator {0.4, 2.6}: hand-checkable throughout."""
    return TwoSampleData(denominator=[0.0, 1.0, 2.0, 3.0], numerator=[0.4, 2.6])


@pytest.fixture
def four_unit_dataset():
    """Two treated at x=0,2 (y=1,3) and two controls at x=0.1,1.9 (y=0,2)."""
    return ObservationalDataset(
        covariates=np.array([[0.0], [2.0], [0.1], [1.9]]),
        treatment=np.array([1, 1, 0, 0]),
        outcome=np.array([1.0, 3.0, 0.0, 2.0]),
    )
