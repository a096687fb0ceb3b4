"""SFQ hardware substrate: cells, netlists, synthesis cost model, design space.

This package models everything the paper obtains from its Verilog + SFQ
synthesis flow: the RSFQ cell library of Table III, structural netlists of
the DigiQ building blocks (Fig. 5), an SFQ synthesis cost model (path
balancing, splitter insertion, area/power/delay), the SFQ/DC current
generator of Fig. 4, the controller design-space costs of Fig. 8, and the
fridge-budget scalability analysis of Sec. VI-A.3.
"""
