"""Exact verification toolkit for the 33-ray Kochen-Specker constructions."""
