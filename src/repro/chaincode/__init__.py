"""Chaincodes (smart contracts) and the chaincode generator.

The package provides the Fabric-like chaincode execution API
(:class:`repro.chaincode.api.ChaincodeStub`), a base class for chaincodes, the
four use-case chaincodes of the paper's Table 2 (EHR, DV, SCM, DRM), the
synthetic ``genChain`` chaincode of Section 4.4, and a chaincode generator that
emits new chaincodes from a declarative specification (registered as
``generated``, its specification passed as constructor arguments).
"""

from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode, ChaincodeResponse, chaincode_function
from repro.chaincode.drm import DigitalRightsChaincode
from repro.chaincode.dv import DigitalVotingChaincode
from repro.chaincode.ehr import ElectronicHealthRecordsChaincode
from repro.chaincode.generator import ChaincodeGenerator, FunctionSpec, GeneratedChaincode
from repro.chaincode.genchain import GenChainChaincode
from repro.chaincode.scm import SupplyChainChaincode

#: Registry of the chaincodes an experiment can name, keyed by the short names
#: used in the figures (EHR, DV, SCM, DRM, genChain), plus the generator's
#: output, which its ``chaincode_kwargs`` specify.
CHAINCODE_REGISTRY = {
    "EHR": ElectronicHealthRecordsChaincode,
    "DV": DigitalVotingChaincode,
    "SCM": SupplyChainChaincode,
    "DRM": DigitalRightsChaincode,
    "genChain": GenChainChaincode,
    "generated": GeneratedChaincode,
}


def create_chaincode(name: str, /, **kwargs) -> Chaincode:
    """Instantiate a registered chaincode (``name`` is positional-only: ``generated`` takes one)."""
    try:
        factory = CHAINCODE_REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(CHAINCODE_REGISTRY))
        raise KeyError(f"unknown chaincode {name!r}; known chaincodes: {known}") from exc
    return factory(**kwargs)


__all__ = [
    "ChaincodeStub",
    "Chaincode",
    "ChaincodeResponse",
    "chaincode_function",
    "ElectronicHealthRecordsChaincode",
    "DigitalVotingChaincode",
    "SupplyChainChaincode",
    "DigitalRightsChaincode",
    "GenChainChaincode",
    "ChaincodeGenerator",
    "GeneratedChaincode",
    "FunctionSpec",
    "CHAINCODE_REGISTRY",
    "create_chaincode",
]
