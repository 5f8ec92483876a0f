"""Empty since the job bus joined the serving layer.

The serving layer is :mod:`repro.serve` (server, workers and fleets),
:mod:`repro.wire` (frames and the job codec) and
:class:`~repro.experiments.socketbus.SocketBus` (a figure grid's embedded
server).  Only :mod:`repro.bus.threads`, an alias of
:func:`repro.blas.limit_blas_threads`, is left here, for callers that
still import it from this path.
"""
