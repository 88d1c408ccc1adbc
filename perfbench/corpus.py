"""The benchmark's inputs: the paper corpus, the size families, and
the seeded ``serve_mixed`` request stream.

Everything here is plain text and plain data, built without importing
the program, so the serve workload's load generator stays light and a
seed always yields the same inputs.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Table 2 runs every kernel on "a single clean pipeline with eight
#: stages".
SCP_STAGES = 8

#: The Livermore kernels of Tables 1-2 (``repro.loops.livermore`` keys).
LIVERMORE_KEYS = (
    "loop1", "loop3", "loop5", "loop7", "loop9", "loop9lcd", "loop11",
    "loop12",
)

CHAIN_SIZES = (16, 32, 64)
DENSE_SIZES = (4, 5, 6, 7)
UNROLL_FACTORS = (8, 16, 32)

#: The loop the serve stream ends on: a 315-byte dense body whose
#: compile enumerates every simple cycle of its net, seconds of work.
DENSE_TAIL_SIZE = 8


class Input(NamedTuple):
    """One compile: a label, the ``compile_loop`` keyword arguments,
    and, for the size families, the family and its size parameter."""

    label: str
    kwargs: Dict[str, object]
    family: Optional[str] = None
    size: Optional[int] = None


def example(name: str) -> str:
    return (ROOT / "examples" / f"{name}.loop").read_text()


def chain_source(n: int, recurrence: bool) -> str:
    """The chain (and, closed by ``T0 <- T{n-1}[i-1]``, the recurrence)
    family of the scaling study: ``T_k = T_{k-1} + IN``."""
    lines = ["do chain:"]
    first = f"IN[i] + T{n - 1}[i-1]" if recurrence else "IN[i] + 1"
    lines.append(f"  T0[i] = {first}")
    for k in range(1, n):
        lines.append(f"  T{k}[i] = T{k - 1}[i] + IN[i]")
    return "\n".join(lines)


def dense_source(n: int) -> str:
    """The dense family: ``T_k = T_0 + ... + T_{k-1}`` with ``T_0``
    reading ``T_{n-1}[i-1]``, so the number of simple cycles grows
    exponentially in ``n`` (315 bytes at n = 8)."""
    lines = ["do dense:", f"  T0[i] = IN[i] + T{n - 1}[i-1]"]
    for k in range(1, n):
        terms = " + ".join(f"T{j}[i]" for j in range(k))
        lines.append(f"  T{k}[i] = {terms}")
    return "\n".join(lines)


def paper_corpus(livermore) -> List[Input]:
    """The 20 compiles of one ``paper_corpus`` pass.  ``livermore`` is
    ``repro.loops.livermore.KERNELS`` (passed in so this module never
    imports the program)."""
    inputs: List[Input] = []
    for key in LIVERMORE_KEYS:
        kernel = livermore[key]
        base = {"source": kernel.source, "scalars": kernel.scalar_bindings()}
        inputs.append(Input(key, dict(base)))
        inputs.append(
            Input(f"{key}/scp{SCP_STAGES}",
                  dict(base, pipeline_stages=SCP_STAGES))
        )
    for name in ("l1", "l2"):
        inputs.append(
            Input(name, {"source": example(name), "include_io": False})
        )
    for name in ("frac5", "interleave"):
        inputs.append(
            Input(f"{name}/auto", {"source": example(name), "unroll": "auto"})
        )
    return inputs


def size_families() -> List[Input]:
    """The 13 compiles of one ``size_families`` pass."""
    inputs: List[Input] = []
    for n in CHAIN_SIZES:
        inputs.append(Input(f"chain/{n}", {"source": chain_source(n, False)},
                            "chain", n))
        inputs.append(Input(f"recurrence/{n}",
                            {"source": chain_source(n, True)},
                            "recurrence", n))
    for n in DENSE_SIZES:
        inputs.append(Input(f"dense/{n}", {"source": dense_source(n)},
                            "dense", n))
    for factor in UNROLL_FACTORS:
        inputs.append(Input(f"unroll/{factor}",
                            {"source": example("interleave"),
                             "unroll": factor},
                            "unroll", factor))
    return inputs


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
#: Stream make-up per 100 requests on each connection: exact repeats
#: (payload-cache hits), variants of earlier loops (payload misses that
#: reuse stage artifacts), never-seen loops (cold compiles).
REPEATS, VARIANTS, FRESH = 82, 10, 8

#: What a variant changes, taken in turn.  Each loop takes each kind at
#: most once, so no variant is a repeat, and every kind recomputes a
#: fixed set of stages; ``unroll="auto"`` is left out because whether
#: it resolves to an explicit factor depends on the loop.
VARIANT_KINDS = (
    {"engine": "step"},
    {"unroll": 2},
    {"pipeline_stages": 4},
    {"pipeline_stages": 6},
)
#: Only loops this short are unrolled: unrolling a generated loop of 8
#: to 10 statements doubles a net whose simple cycles the compiler
#: enumerates, and such a compile takes from 0.1 s to over 30 s today.
UNROLL_MAX_STATEMENTS = 6

#: Statement counts of the generated loops, cycled so every stream has
#: the same size mix.
FRESH_SIZES = tuple(range(3, 11))


def generated_loop(rng: random.Random, prefix: str, size: int) -> str:
    """A never-seen loop of ``size`` statements.  Statement ``k``
    combines an input with one earlier result (two, one time in four);
    one loop-carried read closes a recurrence, so the net has few
    simple cycles.  ``prefix`` makes every array name unique to the
    loop, so no two loops share a stage artifact."""
    lines = [f"do {prefix.lower()}:"]
    carried_into = rng.randrange(size)
    carried_from = rng.randrange(carried_into, size)
    for k in range(size):
        terms = [f"{prefix}I{k % 3}[i]"]
        if k:
            width = 2 if k > 1 and rng.random() < 0.25 else 1
            earlier = rng.sample(range(k), width)
            terms += [f"{prefix}T{j}[i]" for j in sorted(earlier)]
        if k == carried_into:
            terms.append(f"{prefix}T{carried_from}[i-{rng.choice((1, 2))}]")
        op = rng.choice((" + ", " - ", " * "))
        expr = op.join(terms) if len(terms) > 1 else f"{terms[0]} + 1"
        lines.append(f"  {prefix}T{k}[i] = {expr}")
    return "\n".join(lines)


class Request(NamedTuple):
    """One ``POST /v1/compile`` body and how the stream made it."""

    kind: str  # "fresh", "variant" or "repeat"
    body: Dict[str, object]


def connection_stream(seed: int, conn: int, length: int) -> List[Request]:
    """The closed-loop request sequence of one connection.

    Each block of 100 requests brings 8 new loops, 10 variants and 82
    repeats.  Which loops and variants a stream compiles depends only on
    the connection and the length, so every seed does the same compile
    work; the seed orders each block and picks what is repeated.
    Repeats and variants refer only to this connection's earlier
    requests, which have completed before the next one is sent, so every
    repeat is a payload-cache hit and every variant a miss, whatever the
    timing.
    """
    if length % (REPEATS + VARIANTS + FRESH):
        raise ValueError("stream length must be a multiple of "
                         f"{REPEATS + VARIANTS + FRESH}")
    rng = random.Random(f"serve_mixed/{seed}/{conn}")
    loops: List[Tuple[str, int]] = []  # (source, statements)
    varied = set()  # (loop, variant kind) pairs
    stream: List[Request] = []
    sent: List[Dict[str, object]] = []
    for block in range(length // (REPEATS + VARIANTS + FRESH)):
        fresh = []
        for _ in range(FRESH):
            size = FRESH_SIZES[len(loops) % len(FRESH_SIZES)]
            loop_rng = random.Random(f"serve_mixed/loop/{conn}/{len(loops)}")
            prefix = f"C{conn}L{len(loops)}"
            loops.append((generated_loop(loop_rng, prefix, size), size))
            fresh.append({"source": loops[-1][0]})
        pool = range(FRESH * block, FRESH * (block + 1))  # this block's
        variants = []
        for offset in range(VARIANTS):
            kind = (block * VARIANTS + offset) % len(VARIANT_KINDS)
            loop = next(
                index for index in (
                    pool[(offset + step) % len(pool)]
                    for step in range(len(pool))
                )
                if (index, kind) not in varied
                and ("unroll" not in VARIANT_KINDS[kind]
                     or loops[index][1] <= UNROLL_MAX_STATEMENTS)
            )
            varied.add((loop, kind))
            variants.append(
                dict({"source": loops[loop][0]}, **VARIANT_KINDS[kind])
            )
        items = ([("fresh", body) for body in fresh]
                 + [("variant", body) for body in variants]
                 + [("repeat", None)] * REPEATS)
        rng.shuffle(items)
        sources = {body["source"] for body in sent}
        for position in range(len(items)):
            kind, body = items[position]
            if (kind == "repeat" and not sent) or (
                kind == "variant" and body["source"] not in sources
            ):
                # nothing to repeat or vary yet: bring a new loop forward
                swap = next(q for q in range(position + 1, len(items))
                            if items[q][0] == "fresh")
                items[position], items[swap] = items[swap], items[position]
                kind, body = items[position]
            if kind == "repeat":
                body = rng.choice(sent)
            else:
                sources.add(body["source"])
            sent.append(body)
            stream.append(Request(kind, body))
    return stream


def warmup_stream(conn: int, length: int) -> List[Request]:
    """Untimed warm-up traffic of the same shape, on loops of its own."""
    return connection_stream(-1 - conn, 100 + conn, length)


def dense_tail() -> Dict[str, object]:
    return {"source": dense_source(DENSE_TAIL_SIZE)}
