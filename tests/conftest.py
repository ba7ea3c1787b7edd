import numpy as np
import pytest

import sparsetomo as st

from oracles import SyntheticDiagonalModel


@pytest.fixture(scope="session")
def haar_atlas_j2():
    return st.build_atlas(st.build_filter(1), 2)


@pytest.fixture(scope="session")
def haar_atlas_j3():
    return st.build_atlas(st.build_filter(1), 3)


@pytest.fixture(scope="session")
def radon_j2(haar_atlas_j2):
    return st.RadonModel(haar_atlas_j2)


@pytest.fixture(scope="session")
def radon_j3(haar_atlas_j3):
    return st.RadonModel(haar_atlas_j3)


@pytest.fixture(scope="session")
def db2_atlas_j2():
    return st.build_atlas(st.build_filter(2), 2)


@pytest.fixture(scope="session")
def synthetic_model():
    # scales 0,0,1,1,2,2 with halving decay per scale
    return SyntheticDiagonalModel([0, 0, 1, 1, 2, 2], b=0.5)


@pytest.fixture(scope="session")
def synthetic_cert(synthetic_model):
    n = synthetic_model.dictionary_size()
    return st.compute_gram(synthetic_model, np.arange(n))
