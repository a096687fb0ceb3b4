"""Variability and drift models (Sec. VI-B of the paper)."""
