"""Physical design substrate: PCBs, elastomeric connectors, cube stack."""
