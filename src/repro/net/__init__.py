"""Networking substrate: packet format, framing, demo receive chain."""
