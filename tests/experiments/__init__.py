"""Tests for the experiment harness (runner, parallel fan-out)."""
