"""Discrete-event simulation substrate.

The engine, event utilities, step-function traces with exact
integration, periodic timers, and the multi-channel power recorder used
by every electrical model in the package.
"""
