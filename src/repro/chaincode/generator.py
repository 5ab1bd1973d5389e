"""Chaincode generator — paper Section 4.4.

The generator takes the total number of chaincode functions and, for each
function, the number of read, insert, update, delete and range-read actions
(plus, when CouchDB is selected, optional rich queries).  It produces both a
runnable :class:`GeneratedChaincode` instance and the source code of an
equivalent stand-alone chaincode module, mirroring the paper's "final output is
a syntactically correct chaincode with the user-specified chaincode functions".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode, IndexChooser
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FunctionSpec:
    """Specification of one generated chaincode function."""

    name: str
    reads: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    range_reads: int = 0
    range_size: int = 8
    rich_queries: int = 0

    @property
    def read_only(self) -> bool:
        """True when the function performs no state mutation."""
        return self.inserts == 0 and self.updates == 0 and self.deletes == 0

    def operation_summary(self) -> str:
        """Short Table 2-style operation summary, e.g. ``2xR, 1xW``."""
        parts = []
        if self.reads:
            parts.append(f"{self.reads}xR")
        writes = self.inserts + self.updates
        if writes:
            parts.append(f"{writes}xW")
        if self.deletes:
            parts.append(f"{self.deletes}xD")
        if self.range_reads:
            parts.append(f"{self.range_reads}xRR")
        if self.rich_queries:
            parts.append(f"{self.rich_queries}xRR*")
        return ", ".join(parts) if parts else "no-op"

    def validate(self) -> None:
        """Reject negative counts and empty names."""
        counts = {
            "reads": self.reads,
            "inserts": self.inserts,
            "updates": self.updates,
            "deletes": self.deletes,
            "range_reads": self.range_reads,
            "rich_queries": self.rich_queries,
        }
        for label, value in counts.items():
            if value < 0:
                raise ConfigurationError(f"function {self.name!r}: {label} must be >= 0")
        if not self.name or not self.name.isidentifier():
            raise ConfigurationError(f"function name {self.name!r} is not a valid identifier")
        if self.range_size <= 0:
            raise ConfigurationError(f"function {self.name!r}: range_size must be positive")


class GeneratedChaincode(Chaincode):
    """A chaincode whose functions are synthesised from :class:`FunctionSpec`."""

    def __init__(
        self,
        name: str,
        specs: List[FunctionSpec],
        num_keys: int = 10_000,
        database: str = "leveldb",
    ) -> None:
        self.name = name
        self.specs = {spec.name: spec for spec in specs}
        self.num_keys = num_keys
        self.database = database
        self._insert_counter = num_keys
        super().__init__()
        for spec in specs:
            self._functions[spec.name] = self._make_function(spec)
            self._read_only[spec.name] = spec.read_only

    # ------------------------------------------------------------------- keys
    @staticmethod
    def key(index: int) -> str:
        """World-state key of the synthetic record ``index``."""
        return f"k{index:08d}"

    def initial_state(self, rng: random.Random) -> Dict[str, Any]:
        """Populate ``num_keys`` synthetic records."""
        return {self.key(index): {"value": index, "writes": 0} for index in range(self.num_keys)}

    def genesis_identity(self) -> int:
        return self.num_keys  # neither the name nor the specs reach the state

    # ----------------------------------------------------------- construction
    def _make_function(self, spec: FunctionSpec):
        def run(stub: ChaincodeStub, base_index: int, fresh_index: int) -> str:
            cursor = base_index
            for _ in range(spec.reads):
                stub.get_state(self.key(cursor % self.num_keys))
                cursor += 1
            for _ in range(spec.updates):
                key = self.key(cursor % self.num_keys)
                current = stub.get_state(key) or {"value": cursor, "writes": 0}
                updated = dict(current)
                updated["writes"] = current.get("writes", 0) + 1
                stub.put_state(key, updated)
                cursor += 1
            for offset in range(spec.inserts):
                stub.put_state(self.key(fresh_index + offset), {"value": fresh_index, "writes": 0})
            for _ in range(spec.deletes):
                stub.del_state(self.key(cursor % self.num_keys))
                cursor += 1
            for _ in range(spec.range_reads):
                start = cursor % max(1, self.num_keys - spec.range_size)
                stub.get_state_by_range(self.key(start), self.key(start + spec.range_size))
                cursor += spec.range_size
            for _ in range(spec.rich_queries):
                stub.get_query_result({"writes": 0})
            return "OK"

        run.__name__ = spec.name
        run.__doc__ = f"Generated chaincode function ({spec.operation_summary()})."
        return run

    # ----------------------------------------------------------- workload glue
    def sample_args(
        self,
        function: str,
        rng: random.Random,
        index_chooser: Optional[IndexChooser] = None,
    ) -> Tuple[Any, ...]:
        if function not in self.specs:
            raise ConfigurationError(f"generated chaincode has no function {function!r}")
        spec = self.specs[function]
        base_index = self._choose(rng, self.num_keys, index_chooser)
        fresh_index = self._insert_counter
        self._insert_counter += max(1, spec.inserts)
        return (base_index, fresh_index)

    def operation_profile(self) -> Dict[str, str]:
        return {name: spec.operation_summary() for name, spec in self.specs.items()}


@dataclass
class ChaincodeGenerator:
    """Builds :class:`GeneratedChaincode` instances and their source code.

    Mirrors the paper's generator inputs: the functions (with per-function
    operation counts), the target database type and, for CouchDB, whether rich
    queries should be included.
    """

    name: str = "generated"
    database: str = "leveldb"
    num_keys: int = 10_000
    functions: List[FunctionSpec] = field(default_factory=list)

    def add_function(self, spec: FunctionSpec) -> "ChaincodeGenerator":
        """Add one function specification (validated immediately)."""
        spec.validate()
        if spec.rich_queries and self.database.lower() != "couchdb":
            raise ConfigurationError(
                f"function {spec.name!r} uses rich queries, which require the "
                "CouchDB database type"
            )
        if any(existing.name == spec.name for existing in self.functions):
            raise ConfigurationError(f"duplicate generated function name {spec.name!r}")
        self.functions.append(spec)
        return self

    def generate(self) -> GeneratedChaincode:
        """Instantiate the generated chaincode."""
        if not self.functions:
            raise ConfigurationError("a generated chaincode needs at least one function")
        if self.database.lower() not in {"leveldb", "couchdb"}:
            raise ConfigurationError(
                f"unknown database type {self.database!r}; expected 'leveldb' or 'couchdb'"
            )
        return GeneratedChaincode(
            name=self.name,
            specs=list(self.functions),
            num_keys=self.num_keys,
            database=self.database.lower(),
        )

    def source_code(self) -> str:
        """Emit the source of a stand-alone chaincode module.

        The emitted module is syntactically valid Python that subclasses
        :class:`~repro.chaincode.base.Chaincode`; it is what the paper calls
        "a syntactically correct chaincode with the user-specified functions".
        """
        if not self.functions:
            raise ConfigurationError("a generated chaincode needs at least one function")
        lines = [
            '"""Auto-generated chaincode (repro.chaincode.generator)."""',
            "",
            "from repro.chaincode.base import Chaincode, chaincode_function",
            "",
            "",
            f"class {self._class_name()}(Chaincode):",
            f'    """Generated chaincode {self.name!r} for the {self.database} database."""',
            "",
            f"    name = {self.name!r}",
            "",
            "    def initial_state(self, rng):",
            f"        return {{f'k{{i:08d}}': {{'value': i, 'writes': 0}} for i in range({self.num_keys})}}",
        ]
        for spec in self.functions:
            lines.extend(self._emit_function(spec))
        lines.append("")
        return "\n".join(lines)

    def _class_name(self) -> str:
        cleaned = "".join(part.capitalize() for part in self.name.replace("-", "_").split("_"))
        return f"{cleaned or 'Generated'}Chaincode"

    def _emit_function(self, spec: FunctionSpec) -> List[str]:
        body: List[str] = []
        cursor_needed = spec.reads or spec.updates or spec.deletes or spec.range_reads
        if cursor_needed:
            body.append("        cursor = base_index")
        for _ in range(spec.reads):
            body.append("        stub.get_state(f'k{cursor % " + str(self.num_keys) + ":08d}')")
            body.append("        cursor += 1")
        for _ in range(spec.updates):
            body.append("        key = f'k{cursor % " + str(self.num_keys) + ":08d}'")
            body.append("        value = stub.get_state(key) or {'value': cursor, 'writes': 0}")
            body.append("        stub.put_state(key, dict(value, writes=value.get('writes', 0) + 1))")
            body.append("        cursor += 1")
        for offset in range(spec.inserts):
            body.append(f"        stub.put_state(f'k{{fresh_index + {offset}:08d}}', {{'writes': 0}})")
        for _ in range(spec.deletes):
            body.append("        stub.del_state(f'k{cursor % " + str(self.num_keys) + ":08d}')")
            body.append("        cursor += 1")
        for _ in range(spec.range_reads):
            body.append(
                "        stub.get_state_by_range(f'k{cursor:08d}', "
                f"f'k{{cursor + {spec.range_size}:08d}}')"
            )
            body.append(f"        cursor += {spec.range_size}")
        for _ in range(spec.rich_queries):
            body.append("        stub.get_query_result({'writes': 0})")
        if not body:
            body.append("        pass")
        decorator = (
            "    @chaincode_function(read_only=True)" if spec.read_only else "    @chaincode_function()"
        )
        return [
            "",
            decorator,
            f"    def {spec.name}(self, stub, base_index, fresh_index):",
            f'        """{spec.operation_summary()}"""',
            *body,
            "        return 'OK'",
        ]


def genchain_generator(num_keys: int = 100_000, database: str = "couchdb") -> ChaincodeGenerator:
    """Generator pre-loaded with the genChain function mix of Section 4.4."""
    generator = ChaincodeGenerator(name="genChain", database=database, num_keys=num_keys)
    generator.add_function(FunctionSpec(name="readKey", reads=1))
    generator.add_function(FunctionSpec(name="insertKey", inserts=1))
    generator.add_function(FunctionSpec(name="updateKey", reads=1, updates=1))
    generator.add_function(FunctionSpec(name="deleteKey", deletes=1))
    generator.add_function(FunctionSpec(name="rangeRead", range_reads=1, range_size=8))
    return generator
