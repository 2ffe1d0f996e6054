"""Heart-rate activity classification toolkit.

Library + CLI for turning annotated heart-rate time series into activity
predictions: ingestion/resampling, windowing, handcrafted features, subject
clustering with cluster-routed classifiers, small 1-D conv nets, and a
deterministic evaluation harness.
"""
