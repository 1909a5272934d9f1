"""Astronomy catalog tour: the extension features on NASA-shaped data.

A curator receives an ADC-style astronomy catalog and wants to publish
a flat per-dataset summary.  The tour: inspect the schema (DTD), see
what a restructuring guard will change (shape diff), check its typing,
stream the transformation without materializing it (architecture 1's
mitigation), and quantify the actual information loss.

Run:  python examples/astronomy_catalog.py
"""

import io

import repro
from repro.engine.compile import CompiledRender
from repro.shape.diff import diff_shapes
from repro.shape.dtdgen import forest_to_dtd, shape_to_dtd
from repro.typing.quantify import quantify_loss
from repro.workloads import generate_nasa

GUARD = "CAST MORPH dataset [ title keyword para year ]"


def main() -> None:
    catalog = generate_nasa(25)
    print(f"== catalog: {catalog.node_count()} nodes ==")

    print("\n== the source schema, as a DTD (first lines) ==")
    print("\n".join(forest_to_dtd(catalog).splitlines()[:8]))

    interpreter = repro.Interpreter(catalog)
    compiled = interpreter.compile(GUARD)

    print("\n== what the guard changes (shape diff) ==")
    diff = diff_shapes(interpreter.index.shape, compiled.target_shape)
    for change in diff.moved[:6]:
        print(f"  {change}")

    print("\n== the guard's typing ==")
    print(compiled.loss.pretty().splitlines()[0])

    print("\n== the output schema the guard produces ==")
    print(shape_to_dtd(compiled.target_shape))

    print("\n== streaming render (architecture 1's mitigation) ==")
    sink = io.StringIO()
    emitter = CompiledRender(compiled.target_shape, interpreter.index)
    stats = emitter.write(interpreter.index, sink)
    print(
        f"streamed {stats.nodes_written} nodes / {stats.characters} chars "
        f"with {stats.joins} closest joins, no output tree"
    )
    print(sink.getvalue()[:150] + " ...")

    print("\n== measured information loss ==")
    rendered = interpreter.transform(GUARD)
    print(quantify_loss(catalog, rendered).summary())


if __name__ == "__main__":
    main()
