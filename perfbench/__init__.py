"""The repository's benchmark: workloads, layer tracing and the command."""
