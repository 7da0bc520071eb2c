"""Service-layer spans nest: every shard op sits under its route span."""

from repro.obs import Telemetry
from repro.service.router import ShardRouter


def test_shard_op_spans_are_children_of_the_route_span():
    pairs = [(key, key + 1) for key in range(400)]
    with ShardRouter.build(pairs, num_shards=4, partitioning="hash") as router:
        with Telemetry.with_memory_trace() as telemetry:
            tracer = telemetry.tracer
            request = tracer.start_remote("net.server.request", trace_id=9)
            with tracer.adopt(request):
                values = router.get_many([key for key, _ in pairs])
            tracer.finish(request)
            sink = tracer.sink
    assert values == [value for _, value in pairs]
    (route,) = sink.by_name("service.route")
    assert route["parent_id"] == request.span_id
    shard_ops = sink.by_name("service.shard_op")
    assert len(shard_ops) == 4
    assert all(op["parent_id"] == route["span_id"] for op in shard_ops)
    assert all(op["trace_id"] == 9 for op in shard_ops)
