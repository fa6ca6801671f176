"""Harvester substrate: AC/DC ambient-energy source models."""
