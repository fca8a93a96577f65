"""Every command-line case of tests/capture.py keeps the bytes its manifest
pins; `python tests/capture.py --update` rewrites the manifest and names the
cases that moved."""

from capture import capture, load_manifest, moved


def test_outputs_match_the_capture_manifest():
    assert moved(load_manifest(), capture()) == []
