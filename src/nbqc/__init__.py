"""Non-binary QC-LDPC toolkit: construction, structure verification,
layered Min-Max decoding, shuffle-network scheduling and cost modeling."""
